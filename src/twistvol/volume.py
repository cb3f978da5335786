"""The volume-converging sequence built from twisted Alexander values.

For a hyperbolic knot the ratios of invariant values at t = 1 (even
dimensions against dimension 2, odd against dimension 3) satisfy
4*pi*log|ratio| / n^2 -> Vol as n grows.  Everything up to the ratio is
exact; only the final embedding, absolute value and logarithm run in
arbitrary-precision floating point.
"""

import mpmath

from .invariant import TwistConfig, twisted_alexander, value_at_one

# significant digits of the table's columns; csv prints the full precision
_TABLE_DIGITS = 6


def invariant_values(presentation, rep, ns, column='auto'):
    """Exact value_at_one for each requested dimension, computed once."""
    values = {}
    for n in sorted(set(ns)):
        ta = twisted_alexander(TwistConfig(presentation, rep, n, column))
        values[n] = value_at_one(ta)
    return values


def needed_dimensions(n_min, n_max):
    """Dimensions whose values the outputs for n_min..n_max need.

    Each n in range, plus the parity bases 2 and 3 once a ratio row
    (n >= 4) is in range.
    """
    needed = set(range(n_min, n_max + 1))
    if n_max >= 4:
        needed |= {2, 3}
    return needed


def a_ratio(n, values):
    """The exact ratio of the n-th value against its parity base.

    Even n divides by the dimension-2 value, odd n by the dimension-3
    cofactor value; the simple zeros at t = 1 cancel in the ratio.
    """
    if n < 4:
        raise ValueError('the ratio sequence starts at n = 4')
    base = values[2] if n % 2 == 0 else values[3]
    if base.is_zero():
        raise ZeroDivisionError('base invariant value at t = 1 is zero')
    return values[n] / base


class VolumeRow:
    """One convergence-table entry: n, |A_n(1)| and the estimate
    4 pi log|A_n(1)| / n^2 as mpmath.mpf, and the gap to a reference
    volume, which VolumeReport fills in."""

    __slots__ = ('n', 'ratio_abs', 'estimate', 'gap')

    def __init__(self, n, ratio_abs, estimate, gap=None):
        self.n = n
        self.ratio_abs = ratio_abs
        self.estimate = estimate
        self.gap = gap


def volume_estimate(n, ratio, precision=256):
    """VolumeRow for an exact nonzero ratio at the given bit precision."""
    if ratio.is_zero():
        raise ZeroDivisionError('volume estimate of a zero ratio')
    emb = ratio.field.embed(ratio, precision)
    with mpmath.workprec(precision):
        ratio_abs = abs(emb)
        if ratio_abs == 0:
            raise ArithmeticError('internal error: exact nonzero ratio embedded '
                                  'to zero at %d bits' % precision)
        estimate = 4 * mpmath.pi * mpmath.log(ratio_abs) / n ** 2
    return VolumeRow(n, ratio_abs, estimate)


class VolumeReport:
    """Rows of (n, |A_n(1)|, v_n) plus an optional reference volume."""

    def __init__(self, rows, precision, reference=None):
        rows = sorted(rows, key=lambda r: r.n)
        for row in rows:
            if row.n < 4:
                raise ValueError('volume rows start at n = 4')
        self.rows = rows
        self.precision = precision
        self.reference = None
        if reference is not None:
            with mpmath.workprec(precision):
                self.reference = mpmath.mpf(str(reference))
            for row in self.rows:
                with mpmath.workprec(precision):
                    row.gap = abs(row.estimate - self.reference)

    def _digits(self):
        return mpmath.libmp.libmpf.prec_to_dps(self.precision)

    def format_table(self):
        headers = ['n', '|A_n(1)|', 'v_n', 'gap']
        body = []
        for row in self.rows:
            gap = (mpmath.nstr(row.gap, _TABLE_DIGITS) if row.gap is not None
                   else '-')
            body.append([str(row.n), mpmath.nstr(row.ratio_abs, _TABLE_DIGITS),
                         mpmath.nstr(row.estimate, _TABLE_DIGITS), gap])
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ['  '.join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for r in body:
            lines.append('  '.join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return '\n'.join(lines) + '\n'

    def format_csv(self):
        digits = self._digits()
        lines = ['n,abs_ratio,v_n,gap']
        for row in self.rows:
            gap = mpmath.nstr(row.gap, digits) if row.gap is not None else ''
            lines.append('%d,%s,%s,%s' % (row.n, mpmath.nstr(row.ratio_abs, digits),
                                          mpmath.nstr(row.estimate, digits), gap))
        return '\n'.join(lines) + '\n'


def report_from_values(values, n_min=4, n_max=15, precision=256, reference=None):
    """Build a VolumeReport from precomputed exact value_at_one results."""
    if n_max < n_min:
        raise ValueError('n_max must be at least n_min')
    rows = []
    for n in range(max(4, n_min), n_max + 1):
        rows.append(volume_estimate(n, a_ratio(n, values), precision))
    return VolumeReport(rows, precision, reference)


def volume_table(presentation, rep, n_max, n_min=4, precision=256,
                 reference=None, column='auto'):
    """The convergence table for n_min..n_max (volume rows start at 4)."""
    if n_max < n_min:
        raise ValueError('n_max must be at least n_min')
    values = invariant_values(presentation, rep,
                              needed_dimensions(max(4, n_min), n_max), column)
    return report_from_values(values, n_min, n_max, precision, reference)


def fit_limit(report):
    """EXPERIMENTAL least-squares fit of v_n = V - c / n^2.

    The convergence theorem gives only the limit; this two-parameter fit
    is a convenience extrapolation with no proven error model.  The
    1/n^2 correction shape is empirical (it tracks the worked example
    far better than log(n)/n-type terms) and should not be trusted
    beyond a rough guess.
    """
    rows = report.rows
    if len(rows) < 2:
        raise ValueError('need at least two rows to fit')
    with mpmath.workprec(report.precision):
        s11 = mpmath.mpf(len(rows))
        s12 = s22 = b1 = b2 = mpmath.mpf(0)
        for row in rows:
            x = mpmath.mpf(1) / row.n ** 2
            s12 += x
            s22 += x * x
            b1 += row.estimate
            b2 += row.estimate * x
        det = s11 * s22 - s12 * s12
        limit = (b1 * s22 - b2 * s12) / det
    return limit
