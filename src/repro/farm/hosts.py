"""Declarative run-farm host specifications.

FireSim-style deployment starts from a description of the machines the
simulation may land on; FireAxe inherits that shape for partitioned
runs (which FPGAs sit in which box, which boxes share a QSFP cable,
which only reach each other through the datacenter network).  This
module is the software reproduction's version of that manifest:

* :class:`HostSpec` — one (virtual) host: a name, a core budget (one
  partition worker occupies one core) and a memory budget.
* :class:`FarmSpec` — the farm: the host list plus the *link class*
  between every host pair, resolved to the calibrated
  :class:`~repro.platform.TransportModel` the placement passes price
  cross-host traffic with (``qsfp`` / ``pcie`` / ``host-pcie`` /
  ``ethernet``).  Pairs without an explicit entry use the farm's
  default class (``ethernet`` — the only transport that reaches
  arbitrary host pairs).

Specs round-trip through a small JSON document (see
``examples/farm_hosts.json``) so `repro farm` can take ``--hosts``
from a file; malformed documents raise a typed
:class:`~repro.errors.FarmError` naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import FarmError
from ..platform import (ETHERNET_100G, HOST_PCIE, PCIE_P2P, QSFP_AURORA,
                        TransportModel)

HOSTS_FORMAT = "fireaxe-repro-farm-hosts"
HOSTS_VERSION = 1

#: link-class name -> calibrated transport model (same table the CLI's
#: ``--transport`` flag uses for intra-simulation links)
LINK_CLASSES: Dict[str, TransportModel] = {
    "qsfp": QSFP_AURORA,
    "pcie": PCIE_P2P,
    "host-pcie": HOST_PCIE,
    "ethernet": ETHERNET_100G,
}

DEFAULT_LINK_CLASS = "ethernet"


@dataclass
class HostSpec:
    """One simulated host of the run farm."""

    name: str
    cores: int = 4
    memory_gb: float = 16.0
    #: flips to False when the farm manager pulls the host;
    #: dead hosts are excluded from re-placement after a rollback
    alive: bool = True

    def to_dict(self) -> dict:
        return {"name": self.name, "cores": self.cores,
                "memory_gb": self.memory_gb}


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class FarmSpec:
    """The farm manifest: hosts plus per-pair link classes.

    Args:
        hosts: the host list (validated: non-empty, unique names,
            positive core counts).
        default_link: link class assumed for host pairs without an
            explicit entry.
        links: ``{(a, b): class_name}`` overrides (unordered pairs).
    """

    def __init__(self, hosts: List[HostSpec],
                 default_link: str = DEFAULT_LINK_CLASS,
                 links: Optional[Dict[Tuple[str, str], str]] = None):
        if not hosts:
            raise FarmError("a farm needs at least one host")
        names = [h.name for h in hosts]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise FarmError(f"duplicate host name(s): {dupes}")
        for host in hosts:
            if not host.name:
                raise FarmError("a host needs a non-empty name")
            if host.cores < 1:
                raise FarmError(
                    f"host {host.name!r}: cores must be >= 1 "
                    f"(got {host.cores})")
            if host.memory_gb <= 0:
                raise FarmError(
                    f"host {host.name!r}: memory_gb must be positive")
        if default_link not in LINK_CLASSES:
            raise FarmError(
                f"unknown default link class {default_link!r}; valid: "
                f"{', '.join(sorted(LINK_CLASSES))}")
        self.hosts: Dict[str, HostSpec] = {h.name: h for h in hosts}
        self.default_link = default_link
        self._links: Dict[Tuple[str, str], str] = {}
        for (a, b), cls in (links or {}).items():
            if a not in self.hosts or b not in self.hosts:
                raise FarmError(
                    f"link ({a!r}, {b!r}) names an unknown host")
            if a == b:
                raise FarmError(
                    f"link ({a!r}, {b!r}) connects a host to itself")
            if cls not in LINK_CLASSES:
                raise FarmError(
                    f"link ({a!r}, {b!r}): unknown class {cls!r}; "
                    f"valid: {', '.join(sorted(LINK_CLASSES))}")
            self._links[_pair(a, b)] = cls

    # -- queries ------------------------------------------------------------

    def link_class(self, a: str, b: str) -> str:
        return self._links.get(_pair(a, b), self.default_link)

    def link_model(self, a: str, b: str) -> TransportModel:
        """Transport model pricing traffic between hosts ``a``/``b``."""
        return LINK_CLASSES[self.link_class(a, b)]

    def live_hosts(self) -> List[HostSpec]:
        """Hosts available for placement, in name order."""
        return [self.hosts[n] for n in sorted(self.hosts)
                if self.hosts[n].alive]

    def mark_dead(self, name: str) -> None:
        if name in self.hosts:
            self.hosts[name].alive = False

    def total_cores(self) -> int:
        return sum(h.cores for h in self.live_hosts())

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": HOSTS_FORMAT,
            "version": HOSTS_VERSION,
            "hosts": [self.hosts[n].to_dict()
                      for n in sorted(self.hosts)],
            "default_link": self.default_link,
            "links": [{"a": a, "b": b, "class": cls}
                      for (a, b), cls in sorted(self._links.items())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FarmSpec":
        if not isinstance(payload, dict):
            raise FarmError("host spec must be a JSON object")
        if payload.get("format", HOSTS_FORMAT) != HOSTS_FORMAT:
            raise FarmError(
                f"not a farm host spec (format="
                f"{payload.get('format')!r})")
        hosts = []
        for entry in payload.get("hosts", []):
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or "name" not in entry:
                raise FarmError(
                    f"host entry {entry!r} needs a 'name'")
            try:
                hosts.append(HostSpec(
                    name=str(entry["name"]),
                    cores=int(entry.get("cores", 4)),
                    memory_gb=float(entry.get("memory_gb", 16.0))))
            except (TypeError, ValueError) as exc:
                raise FarmError(
                    f"host entry {entry.get('name')!r}: {exc}")
        links = {}
        for entry in payload.get("links", []):
            if not isinstance(entry, dict) \
                    or not {"a", "b", "class"} <= set(entry):
                raise FarmError(
                    f"link entry {entry!r} needs 'a', 'b' and 'class'")
            links[(str(entry["a"]), str(entry["b"]))] = \
                str(entry["class"])
        return cls(hosts,
                   default_link=payload.get("default_link",
                                            DEFAULT_LINK_CLASS),
                   links=links)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FarmSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FarmError(f"cannot read host spec {path}: {exc}")
        return cls.from_dict(payload)
