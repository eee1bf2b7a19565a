"""Analytic accounting of optimizer state size per parameter shape.

Counts persistent optimizer-state elements only: no parameters, no
gradients, no framework overhead. For an n x m matrix the factored
optimizers replace the O(nm) second-moment buffer with O(n + m) factor
vectors; the accounting below makes that trade explicit so the totals can
be compared across optimizers and manifests.

Manifest file format: one entry per line, ``name dim`` or ``name dim dim``,
with ``#`` starting a comment. A bundled manifest approximating BERT-Large
ships with the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Dict, Tuple

from .optimizers import state_shapes

ManifestEntry = Tuple[str, Tuple[int, ...]]

# each modelled optimizer -> the optimizer variant whose state layout it shares
_LAYOUT_OF = {
    "adam": "adam",
    "lamb": "adam",
    "adafactor": "adafactor",
    "sm3": "adafactor",
    "came": "came",
}
MEMORY_OPTIMIZERS = tuple(_LAYOUT_OF)

_BUNDLED = {"bert-large": "bert_large.txt"}


@dataclass(frozen=True)
class ShapeManifest:
    entries: Tuple[ManifestEntry, ...]
    element_width_bytes: int = 4

    def __post_init__(self):
        if not self.entries:
            raise ValueError("manifest must contain at least one entry")
        if self.element_width_bytes < 1:
            raise ValueError("element_width_bytes must be positive")
        for name, dims in self.entries:
            if len(dims) not in (1, 2) or any(d < 1 for d in dims):
                raise ValueError(f"entry {name!r} has invalid dims {dims}")

    def total_parameters(self) -> int:
        return sum(math.prod(dims) for _, dims in self.entries)


def state_elements(optimizer: str, dims: Tuple[int, ...]) -> int:
    """Persistent state elements one optimizer keeps for a parameter of dims.

    The count of the arrays `optimizers.state_shapes` lays out. lamb keeps
    the same two full moments as adam; sm3 (momentum plus row/column covers)
    is counted with adafactor's footprint.
    """
    if optimizer not in MEMORY_OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer {optimizer!r}, expected one of {MEMORY_OPTIMIZERS}"
        )
    return sum(math.prod(shape) for shape in state_shapes(_LAYOUT_OF[optimizer], dims).values())


@dataclass(frozen=True)
class MemoryReport:
    baseline: str
    element_width_bytes: int
    total_parameters: int
    totals: Dict[str, int]  # optimizer -> total state elements
    total_bytes: Dict[str, int]
    ratios: Dict[str, float]  # vs baseline, in element counts
    breakdown: Dict[str, Dict[str, int]]  # optimizer -> entry name -> elements

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def report(manifest: ShapeManifest, baseline: str = "adam") -> MemoryReport:
    """Aggregate state elements over a manifest for every modeled optimizer."""
    if baseline not in MEMORY_OPTIMIZERS:
        raise ValueError(f"unknown baseline {baseline!r}")
    breakdown: Dict[str, Dict[str, int]] = {}
    totals: Dict[str, int] = {}
    for opt in MEMORY_OPTIMIZERS:
        per_entry: Dict[str, int] = {}
        for name, dims in manifest.entries:
            per_entry[name] = per_entry.get(name, 0) + state_elements(opt, dims)
        breakdown[opt] = per_entry
        totals[opt] = sum(per_entry.values())
    width = manifest.element_width_bytes
    base = totals[baseline]
    return MemoryReport(
        baseline=baseline,
        element_width_bytes=width,
        total_parameters=manifest.total_parameters(),
        totals=totals,
        total_bytes={opt: count * width for opt, count in totals.items()},
        ratios={opt: count / base for opt, count in totals.items()},
        breakdown=breakdown,
    )


def render_table(rep: MemoryReport) -> str:
    """Aligned text table of totals and ratios, smallest state first."""
    header = f"{'optimizer':<12} {'state elements':>16} {'state bytes':>14} {'vs ' + rep.baseline:>12}"
    lines = [
        f"parameters: {rep.total_parameters:,} "
        f"(state element width {rep.element_width_bytes} B)",
        header,
        "-" * len(header),
    ]
    for opt in sorted(rep.totals, key=lambda o: (rep.totals[o], o)):
        lines.append(
            f"{opt:<12} {rep.totals[opt]:>16,} {rep.total_bytes[opt]:>14,} "
            f"{rep.ratios[opt]:>12.4f}"
        )
    return "\n".join(lines)


def parse_manifest(text: str, element_width_bytes: int = 4) -> ShapeManifest:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"manifest line {lineno}: expected 'name dim [dim]', got {raw!r}"
            )
        name = parts[0]
        try:
            dims = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: bad dimension in {raw!r}") from exc
        entries.append((name, dims))
    return ShapeManifest(entries=tuple(entries), element_width_bytes=element_width_bytes)


def load_manifest(path: str, element_width_bytes: int = 4) -> ShapeManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read(), element_width_bytes)


def bundled_manifest(name: str = "bert-large", element_width_bytes: int = 4) -> ShapeManifest:
    if name not in _BUNDLED:
        raise ValueError(f"unknown bundled manifest {name!r}, have {sorted(_BUNDLED)}")
    text = (resources.files("came_opt") / "manifests" / _BUNDLED[name]).read_text("utf-8")
    return parse_manifest(text, element_width_bytes)


def scale_manifest(manifest: ShapeManifest, factor: int) -> ShapeManifest:
    """Multiply every dimension by an integer factor (model-growth thought experiment)."""
    if factor < 1 or factor != int(factor):
        raise ValueError(f"scale factor must be a positive integer, got {factor}")
    scaled = tuple(
        (name, tuple(d * int(factor) for d in dims)) for name, dims in manifest.entries
    )
    return ShapeManifest(entries=scaled, element_width_bytes=manifest.element_width_bytes)
