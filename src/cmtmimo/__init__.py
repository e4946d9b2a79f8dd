"""Multi-cell massive-MIMO uplink simulator with CMT signaling and a
Godard-style blind tap-weight tracker.

The API is the modules, and importing the package loads none of them:
cross-cell gains (``topology``), COST 207 multipath (``channel``), the CMT
loopback (``cmt``), pilot-contaminated estimation (``airlink``), reference
combiners (``combine``), the blind tracker (``blind``) and its kernel
(``kernels``), the experiments and SINR metric (``harness``), their
configuration (``config``), the invariant suite (``verify``) and the
command line (``cli``).
"""

__version__ = "0.1.0"
