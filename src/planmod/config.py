"""Run configuration: the desk-scale parameter overrides, the solver's mode
switches, and the enumeration caps. This is the one home of every cap and
hat; a library call made without a config runs under `DEFAULTS`. The
constants the source material leaves symbolic (c1, c2) are fixed in
`signatures`, not configured here."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class PipelineConfig:
    # desk-scale parameter overrides (None = use the defining formula; with
    # all three None the parameters are the source's)
    rho_hat: int | None = None
    q_hat: int | None = 3
    d_hat: int | None = None
    # solver behaviour
    size_mode: str = "at_most"          # or "exact"
    cross_check: bool = True            # False is for benchmarking only: unsound
    # enumeration caps; searches raise ResourceLimitError instead of guessing
    cap_oracle_subsets: int = 2_000_000
    cap_char_subsets: int = 200_000
    cap_wall_nodes: int = 200_000
    cap_compass: int = 160
    cap_brute_vertices: int = 128
    cap_quant_depth: int = 16

    def __post_init__(self):
        if self.size_mode not in ("at_most", "exact"):
            raise InputError("size_mode must be 'at_most' or 'exact'")
        for name in CAPS:
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        for name in ("rho_hat", "d_hat"):
            hat = getattr(self, name)
            if hat is not None and hat < 1:
                raise InputError(f"{name} must be positive")

    def to_json_obj(self) -> dict:
        return asdict(self)


# the enumeration caps' field names, in declaration order
CAPS = tuple(f.name for f in fields(PipelineConfig) if f.name.startswith("cap_"))

# the configuration of every call that is not given one
DEFAULTS = PipelineConfig()
