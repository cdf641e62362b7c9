"""duality-lab: verify dualities between population-genetics processes.

Subpackages:

* :mod:`duality_lab.algebra` -- ladder-operator matrix representations,
  commutation and intertwiner checks, the binomial transform;
* :mod:`duality_lab.dualities` -- the duality-function catalog with stable
  evaluation;
* :mod:`duality_lab.processes` -- process models, generator matrices,
  seeded jump and diffusion samplers;
* :mod:`duality_lab.exact` -- matrix-exponential oracles, exact duality
  checks and worked-example reproductions;
* :mod:`duality_lab.montecarlo` -- seeded estimators and statistical
  comparisons;
* :mod:`duality_lab.cli` -- the ``duality-lab`` command.
"""

from . import algebra, dualities, exact, montecarlo, processes

__all__ = ["algebra", "dualities", "exact", "montecarlo", "processes"]
__version__ = "0.1.0"
