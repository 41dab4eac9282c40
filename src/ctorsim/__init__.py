"""Trial-based simulator and exact analytics for bridge blocking in
single-circuit (otor), multi-circuit (mtor), and coded multi-circuit
(ctor) onion routing."""

__version__ = "0.1.0"
