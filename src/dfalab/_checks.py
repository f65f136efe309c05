"""Argument checks shared by library and CLI: a ValueError naming the argument."""


def check_count(name: str, value: int) -> None:
    if type(value) is not int:  # not isinstance: a bool is an int
        raise ValueError(f"{name} must be an int")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def check_budget(name: str, seconds: float | None) -> None:
    if seconds is not None and not seconds > 0:  # NaN too: its deadline would never pass
        raise ValueError(f"{name} must be a positive number of seconds")
