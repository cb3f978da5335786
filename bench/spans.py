"""Spans recorded from outside twistvol, around calls into its layers.

Each wrapper is installed at the name the caller looks up: `invariant`
imports `determinant`, `reduce`, `normalize_unit`, `symmetric_power` and
`fox_derivative` by name, and `volume` imports `twisted_alexander` and
`value_at_one` by name, so those module attributes are replaced, not
the defining ones.  Methods are replaced on their class.  No code in
twistvol changes.

A determinant is a numerator when its argument is the matrix just
returned by `PolyMatrix.drop_columns`, and a denominator otherwise.

Spans stay in memory (id, parent id, trace id, name, start, end,
attributes) and are written out once, when the benchmark ends.
"""

import contextlib
import functools
import json
import time

# Every span the tracer can record, as reported by the traced run.
SPAN_NAMES = (
    'cli.load_job',
    'group.fox_derivative',
    'rep.evaluate',
    'rep.symmetric_power',
    'invariant.phi',
    'invariant.wada_matrix',
    'invariant.twisted_alexander',
    'invariant.value_at_one',
    'laurent.det_num',
    'laurent.det_den',
    'laurent.reduce',
    'laurent.normalize_unit',
    'field.embed',
    'volume.volume_estimate',
    'volume.format',
)


def coefficient_bits(poly):
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for element in poly.coeffs.values() for c in element.coeffs),
               default=0)


class Tracer:
    """Collects spans; `install` wraps the twistvol call sites."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._dropped = None
        self._installed = []
        self.trace_id = None

    def _open(self, name):
        record = {'id': len(self.spans), 'trace': self.trace_id,
                  'parent': self._stack[-1]['id'] if self._stack else None,
                  'name': name}
        self.spans.append(record)
        self._stack.append(record)
        record['start'] = time.perf_counter()
        return record

    def _close(self, record):
        record['end'] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, trace_id, name):
        """A span with no parent; spans opened inside share its trace id."""
        self.trace_id = trace_id
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)
            self.trace_id = None

    def span(self, name, fn, attrs=None):
        """Wrap fn so each call records a span.

        name is a string or a function of the call's arguments;
        attrs(args, result) returns extra fields for the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            record = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if attrs is not None:
                record.update(attrs(args, result))
            return result
        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, tv):
        """Replace the call sites of the twistvol package `tv`."""
        invariant, volume = tv.invariant, tv.volume
        drop_columns = tv.laurent.PolyMatrix.drop_columns

        def remember(matrix, start, width):
            self._dropped = drop_columns(matrix, start, width)
            return self._dropped

        def det_kind(args):
            numerator = args[0] is self._dropped
            self._dropped = None
            return 'laurent.det_num' if numerator else 'laurent.det_den'

        def det_sizes(args, result):
            return {'rows': args[0].nrows, 'out_bits': coefficient_bits(result)}

        twisted = self.span('invariant.twisted_alexander',
                            invariant.twisted_alexander)
        at_one = self.span('invariant.value_at_one', invariant.value_at_one)
        self._replace(tv.laurent.PolyMatrix, 'drop_columns', remember)
        self._replace(invariant, 'determinant',
                      self.span(det_kind, invariant.determinant, det_sizes))
        self._replace(invariant, 'twisted_alexander', twisted)
        self._replace(volume, 'twisted_alexander', twisted)
        self._replace(invariant, 'value_at_one', at_one)
        self._replace(volume, 'value_at_one', at_one)
        for owner, attr, name in (
                (tv.cli, 'load_job', 'cli.load_job'),
                (invariant, 'fox_derivative', 'group.fox_derivative'),
                (tv.rep.Representation, 'evaluate', 'rep.evaluate'),
                (invariant, 'symmetric_power', 'rep.symmetric_power'),
                (invariant, 'phi', 'invariant.phi'),
                (invariant, 'wada_matrix', 'invariant.wada_matrix'),
                (invariant, 'reduce', 'laurent.reduce'),
                (invariant, 'normalize_unit', 'laurent.normalize_unit'),
                (tv.field.NumberField, 'embed', 'field.embed'),
                (volume, 'volume_estimate', 'volume.volume_estimate'),
                (volume.VolumeReport, 'format_table', 'volume.format')):
            self._replace(owner, attr, self.span(name, getattr(owner, attr)))

    def uninstall(self):
        """Put back every call site `install` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self, scale):
        """Per-name busy time, self time, calls and sizes over some traces.

        scale maps each trace id to count to the factor its durations are
        multiplied by.  Busy time counts a span only when no enclosing
        span has the same name; self time is a span's duration minus its
        children's.
        """
        chosen = [s for s in self.spans if s['trace'] in scale]
        by_id = {s['id']: s for s in self.spans}

        def duration(s):
            return (s['end'] - s['start']) * scale[s['trace']]

        child_time = {}
        for s in chosen:
            if s['parent'] is not None:
                child_time[s['parent']] = (child_time.get(s['parent'], 0.0)
                                           + duration(s))
        out = {name: {'s': 0.0, 'self_s': 0.0, 'calls': 0}
               for name in SPAN_NAMES}
        for s in chosen:
            entry = out.get(s['name'])
            if entry is None:
                continue
            entry['calls'] += 1
            entry['self_s'] += duration(s) - child_time.get(s['id'], 0.0)
            parent = by_id.get(s['parent'])
            while parent is not None and parent['name'] != s['name']:
                parent = by_id.get(parent['parent'])
            if parent is None:
                entry['s'] += duration(s)
            for key in ('rows', 'out_bits'):
                if key in s:
                    entry[key] = max(entry.get(key, 0), s[key])
        return out

    def write(self, path):
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump({'spans': self.spans}, handle)
