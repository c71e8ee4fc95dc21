"""Exception types shared across the library."""


class GraphError(ValueError):
    """Invalid graph data: out-of-range vertex, self-loop, bad parameters."""

    def __init__(self, message, ids=()):
        self.form, self.ids = message, ids  # `form` has a `{}` per id, 0-based
        super().__init__(self.text(0))

    def text(self, base):
        """The message with each id plus `base`; the CLI shows ids 1-based."""
        ids = [i + base for i in self.ids]
        return self.form.format(*ids) if ids else self.form


class CapExceededError(RuntimeError):
    """An exact computation was refused because the instance exceeds its size cap.

    Exact solvers never fall back to approximation. Only `tin_exact` and
    `treewidth_exact` take a `cap`, which callers may raise to accept the cost;
    the other caps are module constants.
    """


class InvalidDecompositionError(ValueError):
    """An operation required a valid tree decomposition and validation failed."""

    def __init__(self, report):
        self.report = report
        super().__init__(self.text(0))

    def text(self, base):
        return f"decomposition failed validation: {self.report.text(base)}"


class ResidualBoundViolation(RuntimeError):
    """A bag's residual part contains an independent set larger than the promised bound."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


class ParseError(ValueError):
    """Malformed input file."""

    def __init__(self, source, line_no, message):
        self.source = source
        self.line_no = line_no
        super().__init__(f"{source}:{line_no}: {message}")
