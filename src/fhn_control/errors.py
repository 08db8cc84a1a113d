"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A scenario or parameter value violates its declared invariant."""


class ContractViolation(ValueError):
    """Operands passed to an operation do not satisfy its preconditions
    (mismatched grids, inconsistent time grids, ...)."""


#: |X|_H above which a path counts as blown up.
BLOWUP_THRESHOLD = 1.0e6


class BlowUpError(RuntimeError):
    """A path's state norm exceeded the blow-up threshold.

    The cubic reaction term is stabilizing, so this signals a
    mis-configured run rather than genuine model behaviour.  The guard
    reads an integration's paths once its time loop is over: `step` is the
    first time node at which some path's H-energy |X|_H^2 exceeds the
    squared threshold or is not finite, `path` is the ensemble index of
    the lowest path failing there, and `norm` is its |X|_H.  A path that
    crosses the threshold without overflowing runs to the last step first;
    an overflow stops the loop at the step whose solve goes non-finite.
    """

    def __init__(self, step: int, norm: float, path: int = 0):
        self.step = step
        self.norm = norm
        self.path = path
        super().__init__(
            f"state blow-up on path {path}, step {step}: |X|_H = {norm:.3e} "
            f"(threshold {BLOWUP_THRESHOLD:g}); check dt and parameters"
        )
