"""nkspectra: exact spectral and deformation computations for the three
homogeneous nearly Kahler 6-manifolds S3 x S3, CP3 and the flag manifold
F(1,2).

Everything is exact rational arithmetic (fractions.Fraction); there is no
floating point anywhere in the package.

Modules
-------
rootrep   root systems, Casimir/Laplace eigenvalues, dimensions, weights
branching isotropy modules and Hom_K dimensions for the Peter-Weyl count
spectrum  eigenvalue enumeration, multiplicities, moduli upper bounds
dga       invariant exterior calculus on U3 with Killing coefficients
nkcheck   verification suites for the structure identities and the
          8-dimensional deformation space of the flag manifold
cli       command line front end
"""

from .rootrep import (
    Group,
    IrrepLabel,
    RootSystem,
    casimir_eigenvalue,
    dimension,
    laplace_eigenvalue,
    root_system,
    tensor_decompose_su2,
)
from .branching import (
    Bundle,
    Space,
    U2Label,
    hom_dimension,
    isotropy_module,
    space_group,
)
from .spectrum import (
    ModuliReport,
    SpectrumEntry,
    eigenspace_multiplicity,
    einstein_deformation_check,
    enumerate_spectrum,
    moduli_upper_bound,
    scal_normalization_check,
)

__version__ = "0.1.0"

__all__ = [
    "Group",
    "IrrepLabel",
    "RootSystem",
    "casimir_eigenvalue",
    "dimension",
    "laplace_eigenvalue",
    "root_system",
    "tensor_decompose_su2",
    "Bundle",
    "Space",
    "U2Label",
    "hom_dimension",
    "isotropy_module",
    "space_group",
    "ModuliReport",
    "SpectrumEntry",
    "eigenspace_multiplicity",
    "einstein_deformation_check",
    "enumerate_spectrum",
    "moduli_upper_bound",
    "scal_normalization_check",
    "__version__",
]
