"""Physics attributes, global parameters, and input-file parsers.

A problem is described by a list of physics attributes, each living in
one space of the exact sequence and carrying one or more components.
Attributes must be declared in exact-sequence order of their spaces
(contin, tangen, normal, discon).  Component indices are global across
attributes, in declaration order, components innermost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

CONTIN, TANGEN, NORMAL, DISCON = "contin", "tangen", "normal", "discon"
SPACE_TO_FE = {CONTIN: "H1", TANGEN: "HCURL", NORMAL: "HDIV", DISCON: "L2"}
_SPACE_RANK = {CONTIN: 0, TANGEN: 1, NORMAL: 2, DISCON: 3}


@dataclass
class PhysicsAttr:
    nick: str
    space: str
    ncomp: int
    is_trace: bool = False          # discretized as interface restriction only
    homogeneous_dirichlet: bool = False  # skip Dirichlet data interpolation

    def __post_init__(self):
        if self.space not in SPACE_TO_FE:
            raise ConfigError(f"unknown space tag {self.space!r}")
        if self.ncomp < 1:
            raise ConfigError(f"attribute {self.nick}: ncomp must be >= 1")
        if self.is_trace and self.space == DISCON:
            raise ConfigError(
                f"attribute {self.nick!r}: traces of discontinuous variables "
                "are not defined"
            )

    @property
    def fe_space(self) -> str:
        return SPACE_TO_FE[self.space]


class PhysicsTable:
    """Ordered attribute list with global component offsets."""

    def __init__(self, attrs):
        self.attrs = list(attrs)
        rank = -1
        for a in self.attrs:
            r = _SPACE_RANK[a.space]
            if r < rank:
                raise ConfigError(
                    f"attribute {a.nick!r}: spaces must appear in exact-sequence "
                    "order (contin, tangen, normal, discon)"
                )
            rank = r
        self._offsets = []
        off = 0
        for a in self.attrs:
            self._offsets.append(off)
            off += a.ncomp

    @property
    def nr_physa(self) -> int:
        return len(self.attrs)

    @property
    def nr_comp(self) -> list[int]:
        return [a.ncomp for a in self.attrs]

    def comp_offset(self, attr: int) -> int:
        return self._offsets[attr]

    def global_comp(self, attr: int, comp: int) -> int:
        if not 0 <= attr < self.nr_physa:
            raise ConfigError(f"attribute index {attr} out of range")
        if not 0 <= comp < self.attrs[attr].ncomp:
            raise ConfigError(f"component {comp} out of range for attribute {attr}")
        return self._offsets[attr] + comp


@dataclass
class Parameters:
    """Global control parameters (one component set, one right-hand side)."""

    nexact: int = 0
    nord_add: int = 1
    istc_flag: int = 1


_CONTROL_KEYS = {
    "NEXACT": "nexact",
    "NORD_ADD": "nord_add",
    "ISTC_FLAG": "istc_flag",
}

# on/off keys: any value but 0 or 1 is a typo, not a setting
_FLAG_KEYS = ("NEXACT", "ISTC_FLAG")

# keys accepted only at the one value the solver implements: (value, reason)
_FIXED_KEYS = {
    "STORE_STC": (1, "condensation factors are always stored"),
    "HERM_STC": (0, "condensation factors are stored in plain symmetric form"),
    "EXGEOM": (0, "exact-geometry elements are not supported; elements "
                  "are isoparametric"),
}


def read_control(path) -> Parameters:
    """Parse a key-value control file ("<KEY> <VALUE>" lines, '#' comments).

    NEXACT and ISTC_FLAG are on/off switches and must be 0 or 1.
    STORE_STC, HERM_STC and EXGEOM are accepted only at the one value
    the solver implements (1, 0 and 0); any other value raises, naming
    the key's reason, rather than being ignored.
    """
    params = Parameters()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected '<KEY> <VALUE>'")
            key, value = parts
            if key not in _CONTROL_KEYS and key not in _FIXED_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown control key {key!r}")
            try:
                ival = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-integer value {value!r}")
            if key in _FIXED_KEYS:
                fixed, reason = _FIXED_KEYS[key]
                if ival != fixed:
                    raise ConfigError(
                        f"{path}:{lineno}: {key} must be {fixed}: {reason}")
            elif key in _FLAG_KEYS and ival not in (0, 1):
                raise ConfigError(
                    f"{path}:{lineno}: {key} must be 0 or 1, got {ival}")
            else:
                setattr(params, _CONTROL_KEYS[key], ival)
    if params.nord_add < 0:
        raise ConfigError("NORD_ADD must be >= 0")
    return params


def read_physics(path) -> PhysicsTable:
    """Parse the physics file.

    Layout: line 1 "<MAXNODS> [comment]", line 2 "<NR_PHYSA> [comment]",
    then NR_PHYSA >= 1 lines "<nick> <space> <ncomp> [comment]".  MAXNODS
    must be an integer but is otherwise unused: the node table grows as
    needed.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"{path}: truncated physics file")

    def _leading_int(line, what):
        tok = line.split()[0]
        try:
            return int(tok)
        except ValueError:
            raise ConfigError(f"{path}: expected integer {what}, got {tok!r}")

    _leading_int(lines[0], "MAXNODS")
    nr_physa = _leading_int(lines[1], "NR_PHYSA")
    if nr_physa < 1:
        raise ConfigError(f"{path}: NR_PHYSA must be at least 1, got {nr_physa}")
    body = lines[2:]
    if len(body) < nr_physa:
        raise ConfigError(
            f"{path}: NR_PHYSA={nr_physa} but only {len(body)} attribute lines"
        )
    attrs = []
    for ln in body[:nr_physa]:
        toks = ln.split()
        if len(toks) < 3:
            raise ConfigError(f"{path}: malformed attribute line {ln!r}")
        nick, space = toks[0], toks[1]
        try:
            ncomp = int(toks[2])
        except ValueError:
            raise ConfigError(f"{path}: bad component count in {ln!r}")
        attrs.append(PhysicsAttr(nick, space, ncomp))
    return PhysicsTable(attrs)
