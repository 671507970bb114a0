"""The choices and defaults that the command line's option table reads
from modules a run loads only when it needs them: generator kinds and
iid distributions (synth), the DFA detrending order (dfa) and the
threshold of the per-bin tail fits (factors). Those modules import them
from here, and this module imports nothing, so building the parser loads
none of them.
"""

KINDS = ("iid", "fgn", "cascade")
DISTS = ("normal", "student_t", "powered_normal")
DEFAULT_ORDER = 1
# an order-k fit needs windows of k + 2 points; the smallest window,
# dfa.DEFAULT_MIN_WINDOW, is 8
MAX_ORDER = 6
DEFAULT_Q = 2.0
