"""Exact twisted Alexander invariants and hyperbolic volume estimates.

The pipeline: parse a deficiency-one presentation, lift an SL(2)
representation through symmetric powers, run Fox calculus through the
twisted map into Laurent-polynomial matrices, take exact determinants,
and turn the values at t = 1 into the volume-converging sequence
4*pi*log|A_n(1)| / n^2.
"""

from .group import (GroupRingElement, ParseError, Presentation, Word,
                    abelianize, fox_derivative, parse_presentation,
                    relator)
from .field import EmbeddingError, NFElement, NumberField
from .rep import Matrix, Representation, symmetric_power
from .laurent import (LaurentPolynomial, PolyMatrix, RationalFunction,
                      determinant, equal_up_to_unit, normalize_unit,
                      order_at_one, parse_polynomial, reduce)
from .invariant import (TwistConfig, TwistedAlexander,
                        NoAdmissibleColumnError, SimpleZeroViolationError,
                        phi, twisted_alexander, value_at_one, wada_matrix)
from .volume import (VolumeReport, VolumeRow, a_ratio, fit_limit,
                     invariant_values, report_from_values, volume_estimate,
                     volume_table)
from .cli import JobFile, bundled_job_path, load_job, parse_job

__version__ = '0.1.0'
