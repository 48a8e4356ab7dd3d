"""Published calibrated constants.

The size bounds only assert that suitable constants exist; the concrete
values below were measured once over the randomized test suites and are
committed so that every bound is checked against a fixed number.
"""

# Counted lines of a generated proof are at most D_LINES * 2^cost.
# The recurrence is f(c) = 2 f(c-1) + 19 with f(0) = 1 (each oracle step
# spends two scheme derivations, 7 + 9 counted lines, plus three cuts),
# giving f(c) = 20 * 2^c - 19.
D_LINES = 20

# Every line of a generated proof has length at most E_LINE_FACTOR times
# the length of the root sequent (measured maximum is below 4).
E_LINE_FACTOR = 4

# Counted lines of the four substitution-scheme derivations.
K_E = {"E1": 7, "E2": 7, "E3": 9, "E4": 9}

# Gate count of the one-hot index decoder is at most C_ALPHA * n.
C_ALPHA = 4
