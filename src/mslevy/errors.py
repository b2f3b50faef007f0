"""Exception types shared across the toolkit."""


class MslevyError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(MslevyError):
    """Invalid argument, config file, or stepper setup (CLI exit code 2)."""


class BlowUpError(MslevyError):
    """A simulated path left the finite range; the whole batch is invalid.

    Attributes:
        time: simulation time at which the first non-finite state appeared.
        paths: indices of the offending paths within the batch or, in a
            run over stream blocks, within the first offending block.
        block: index of that block, or None for a single-stream run.
        where: what the batch or block simulated, when a caller knows.
    """

    def __init__(self, time, paths, block=None, where=None):
        self.time = float(time)
        self.paths = list(paths)
        self.block = block
        self.where = where
        at = f" of block {block}" if block is not None else ""
        at += f" at {where}" if where else ""
        super().__init__(
            f"path blow-up at t={self.time:.6g} on {len(self.paths)} path(s) "
            f"(first index {self.paths[0] if self.paths else '?'}{at})"
        )


class TableValidationError(MslevyError):
    """Averaged-coefficient table failed leave-node-out validation."""


class DecayFitError(MslevyError):
    """Fitted ergodicity decay rate is not positive; truncated time
    integrals are not demonstrably convergent at this budget."""
