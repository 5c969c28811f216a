"""Locale-independent numeric text formatting for emitted files."""


def sig15(x: float) -> str:
    """Format a float with 15 significant digits, C-locale decimal point; -0 as 0."""
    return format(float(x) + 0.0, ".15g")
