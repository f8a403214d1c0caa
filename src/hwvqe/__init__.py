"""Classical simulation of Hamming-weight-constrained variational optimization.

Subpackages: statevector simulation (`qsim`), Dicke-state circuit construction
(`ansatz`), product decomposition of the weight-constrained space
(`partition`), cost models (`problem`), ground-state location (`locate`),
CVaR optimization (`vqe`), and the batch CLI (`cli`).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
