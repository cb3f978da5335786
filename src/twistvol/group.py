"""Words in finitely presented groups, presentation parsing, Fox calculus.

Generators are single lowercase ASCII letters; the matching uppercase
letter denotes the inverse.  Internally a word is a tuple of nonzero
integers in Tietze form: +k is the k-th generator (1-based), -k its
inverse.  Words are kept freely reduced at all times.
"""

import re


class ParseError(ValueError):
    """Presentation or job text does not follow the grammar."""


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """A freely reduced word in a free group.

    >>> w = Word([1, 2, -2, -1, 2])
    >>> w.letters
    (2,)
    >>> (w * ~w).is_identity()
    True
    """

    __slots__ = ('letters',)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for x in letters:
            if not isinstance(x, int) or x == 0:
                raise ValueError('word letters must be nonzero integers')
        self.letters = _reduce(letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def __invert__(self):
        return Word(tuple(-x for x in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def is_identity(self):
        return not self.letters

    def max_generator(self):
        """Largest 1-based generator index used, 0 for the identity."""
        return max((abs(x) for x in self.letters), default=0)

    def to_string(self, names):
        if not self.letters:
            return '1'
        out = []
        for x in self.letters:
            g = names[abs(x) - 1]
            out.append(g if x > 0 else g.upper())
        return ''.join(out)

    def __repr__(self):
        return 'Word%r' % (self.letters,)


def relator(lhs, rhs):
    """Relator of the relation lhs = rhs, fixed as lhs * rhs^-1."""
    return lhs * ~rhs


def abelianize(word, alpha):
    """Image of a word under the abelianization generator -> t^alpha.

    alpha is a sequence of integer exponents indexed by generator.
    """
    total = 0
    for x in word:
        e = alpha[abs(x) - 1]
        total += e if x > 0 else -e
    return total


class GroupRingElement:
    """Integer formal sum of freely reduced words (an element of Z[F]).

    Supports +, - and * with an element, a Word or an int on the right,
    and + on either side; products concatenate, then reduce, eagerly.
    """

    __slots__ = ('terms',)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif isinstance(terms, Word):
            terms = {terms: 1}
        elif isinstance(terms, int):
            terms = {Word(): terms} if terms else {}
        self.terms = {w: c for w, c in terms.items() if c != 0}

    @staticmethod
    def _coerce(x):
        if isinstance(x, GroupRingElement):
            return x
        if isinstance(x, (Word, int)):
            return GroupRingElement(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(terms)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + cu * cv
        return GroupRingElement(terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def to_string(self, names):
        if not self.terms:
            return '0'
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w.letters)):
            c = self.terms[w]
            s = w.to_string(names)
            if c == 1:
                parts.append(s)
            elif c == -1:
                parts.append('-' + s)
            else:
                parts.append('%d*%s' % (c, s))
        return ' + '.join(parts).replace('+ -', '- ')

    def __repr__(self):
        return 'GroupRingElement(%r)' % (self.terms,)


def fox_derivative(word, gen):
    """Fox free derivative d(word)/d(x_gen) of a Word, as a GroupRingElement.

    gen is a 0-based generator index.  Uses the rules dx/dx = 1,
    d(x^-1)/dx = -x^-1 and d(uv)/dx = du/dx + u * dv/dx.  Every prefix
    of a reduced word is reduced, so no re-reduction is needed.
    """
    letters = word.letters
    target = gen + 1
    terms = {}
    for i, x in enumerate(letters):
        if x == target:
            w = Word(letters[:i])
            terms[w] = terms.get(w, 0) + 1
        elif x == -target:
            w = Word(letters[:i + 1])
            terms[w] = terms.get(w, 0) - 1
    return GroupRingElement(terms)


_GENS_RE = re.compile(r'^[a-z]$')


def _parse_word(names, text):
    """The Word spelled by text over the generator names; uppercase inverts."""
    letters = []
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low not in names:
            raise ParseError('unknown letter %r at position %d in word %r'
                             % (ch, pos, text))
        idx = names.index(low) + 1
        letters.append(idx if ch.islower() else -idx)
    return Word(letters)


def _checked_names(generator_names):
    """The generator names as a tuple: nonempty, distinct single
    lowercase letters, else ParseError."""
    names = tuple(generator_names)
    if not names:
        raise ParseError('presentation needs at least one generator')
    for name in names:
        if not _GENS_RE.match(name):
            raise ParseError('generator %r is not a single lowercase letter' % (name,))
    if len(set(names)) != len(names):
        raise ParseError('generator names are not distinct')
    return names


class Presentation:
    """A deficiency-one group presentation with an abelianization map.

    Stores generator names (distinct lowercase letters), relations as
    pairs of Words, and the exponent alpha(generator) of the surjection
    onto the infinite cyclic group <t> (default 1 for every generator).
    """

    def __init__(self, generator_names, relations, alpha=None):
        names = _checked_names(generator_names)
        relations = tuple((lhs, rhs) for lhs, rhs in relations)
        if len(relations) != len(names) - 1:
            raise ParseError('wrong deficiency: %d relations for %d generators '
                             '(need %d)' % (len(relations), len(names), len(names) - 1))
        if alpha is None:
            alpha = (1,) * len(names)
        else:
            alpha = tuple(alpha)
            if len(alpha) != len(names):
                raise ParseError('alpha must assign an exponent to every generator')
        for k, (lhs, rhs) in enumerate(relations):
            for w in (lhs, rhs):
                if w.max_generator() > len(names):
                    raise ParseError('relation %d uses an undeclared generator' % (k + 1,))
            if abelianize(lhs, alpha) != abelianize(rhs, alpha):
                raise ParseError('relation %d is not balanced under alpha' % (k + 1,))
        self.generator_names = names
        self.relations = relations
        self.alpha = alpha

    @property
    def num_generators(self):
        return len(self.generator_names)

    def generator_index(self, name):
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise ValueError('unknown generator %r' % (name,)) from None

    def generator_word(self, index):
        return Word((index + 1,))

    def word_from_string(self, text):
        return _parse_word(self.generator_names, text)

    def word_to_string(self, word):
        return word.to_string(self.generator_names)

    def abelianize(self, word):
        return abelianize(word, self.alpha)

    def relators(self):
        """Relators lhs * rhs^-1 for every relation, freely reduced."""
        return tuple(relator(lhs, rhs) for lhs, rhs in self.relations)

    def to_text(self):
        lines = ['gens: ' + ' '.join(self.generator_names)]
        for lhs, rhs in self.relations:
            lines.append('rel: %s = %s' % (self.word_to_string(lhs),
                                           self.word_to_string(rhs)))
        if any(e != 1 for e in self.alpha):
            lines.append('alpha: ' + ' '.join('%s=%d' % (g, e)
                         for g, e in zip(self.generator_names, self.alpha)))
        return '\n'.join(lines) + '\n'

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.generator_names == other.generator_names
                and self.relations == other.relations
                and self.alpha == other.alpha)

    def __repr__(self):
        return '<Presentation on %s with %d relation(s)>' % (
            ', '.join(self.generator_names), len(self.relations))


def directives(text):
    """(lineno, head, body, line) for each item of job or presentation text.

    An item is a nonblank line 'head: body' once '#' comments are
    stripped; the head's blanks are collapsed, and it is empty when the
    line has no ':'.  Only the head rel may appear more than once.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        head, colon, body = line.partition(':')
        head = ' '.join(head.split()) if colon else ''
        if head in seen:
            raise ParseError('line %d: duplicate %s line' % (lineno, head))
        if head != 'rel':
            seen.add(head)
        yield lineno, head, body.strip(), line


def parse_presentation(text):
    """Parse presentation text into a validated Presentation.

    Grammar (one item per line, '#' starts a comment):

        gens: <letter> <letter> ...
        rel: <word> = <word>
        alpha: <letter>=<int> ...      (optional; default 1 everywhere)

    A word is a nonempty string of letters; uppercase means inverse.
    alpha names each generator at most once.
    """
    return build_presentation(directives(text))


def build_presentation(items):
    """The Presentation of gens, rel and alpha items from directives().

    Any other head is an error; messages carry the items' line numbers.
    """
    names = None
    raw_relations = []
    alpha_spec = None
    for lineno, head, body, line in items:
        if head == 'gens':
            names = body.split()
        elif head == 'rel':
            if body.count('=') != 1:
                raise ParseError('line %d: relation needs exactly one "="' % lineno)
            lhs, rhs = (side.strip() for side in body.split('='))
            if not lhs or not rhs:
                raise ParseError('line %d: empty relation side' % lineno)
            raw_relations.append((lineno, lhs, rhs))
        elif head == 'alpha':
            alpha_spec = (lineno, body.split())
        else:
            raise ParseError('line %d: unrecognized directive %r' % (lineno, line))
    if names is None:
        raise ParseError('missing gens: line')
    names = _checked_names(names)

    relations = []
    for lineno, lhs, rhs in raw_relations:
        try:
            relations.append((_parse_word(names, lhs),
                              _parse_word(names, rhs)))
        except ParseError as exc:
            raise ParseError('line %d: %s' % (lineno, exc)) from None

    alpha = None
    if alpha_spec is not None:
        lineno, assignments = alpha_spec
        exponents = {}
        for item in assignments:
            if item.count('=') != 1:
                raise ParseError('line %d: bad alpha item %r' % (lineno, item))
            g, val = item.split('=')
            if g not in names:
                raise ParseError('line %d: alpha names unknown generator %r'
                                 % (lineno, g))
            if g in exponents:
                raise ParseError('line %d: alpha names %s twice' % (lineno, g))
            try:
                exponents[g] = int(val)
            except ValueError:
                raise ParseError('line %d: bad alpha exponent %r'
                                 % (lineno, val)) from None
        alpha = tuple(exponents.get(g, 1) for g in names)

    return Presentation(names, relations, alpha)
