"""Exception types raised by the solver and design tools."""


class HalmotorError(Exception):
    """Base class for all package errors."""


class ConfigError(HalmotorError):
    """Base class for configuration and input errors."""


class MissingKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"required config key missing: {key!r}")
        self.key = key


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        super().__init__(f"unknown config key: {key!r}")
        self.key = key


class InvalidValue(ConfigError, ValueError):
    """A design value failed validation; `name` is the attribute it sets."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class NonPositiveLength(InvalidValue):
    def __init__(self, name: str, value: float):
        super().__init__(name, f"{name} must be positive, got {value!r}")
        self.value = value


class UnsupportedPhaseCount(InvalidValue):
    def __init__(self, n_ph: int):
        super().__init__("N_ph", f"phase count must be 3 or 5, got {n_ph}")
        self.n_ph = n_ph


class InvalidMagnetCount(InvalidValue):
    def __init__(self, n_m: int):
        super().__init__("N_m", f"magnets per pole must be an integer >= 2, got {n_m!r}")
        self.n_m = n_m


class OffsetExceedsGap(InvalidValue):
    def __init__(self, g_0: float, g: float):
        super().__init__("g_0", f"gap offset {g_0} must satisfy 0 <= g_0 < g = {g}")
        self.g_0 = g_0
        self.g = g


class SingularSystem(HalmotorError):
    """The per-harmonic boundary system could not be solved reliably."""


class OutOfDomain(HalmotorError):
    def __init__(self, coord: str, value: float, limit: str):
        super().__init__(f"{coord} = {value} lies outside the solution domain ({limit})")
        self.coord = coord
        self.value = value


class NoConvergence(HalmotorError):
    """A numerical scheme failed to reach its residual contract."""


class UnresolvedGrid(HalmotorError, ValueError):
    """The FD grid puts too few cells across the magnet array height."""

    def __init__(self, cells: float, needed: int):
        super().__init__(f"grid must resolve the array height with >= {needed} "
                         f"cells; got {cells:.1f}")
        self.cells = cells
        self.needed = needed


class ZeroVelocity(HalmotorError):
    """Power balance is undefined at zero mover speed."""


class ZeroLoss(HalmotorError):
    """Objective with beta > 0 is undefined at zero copper loss."""


class EmptyBounds(HalmotorError):
    """Optimization or sweep bounds select no points."""
