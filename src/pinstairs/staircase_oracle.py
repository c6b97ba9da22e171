"""Staircase embedding oracle, ball-packing feasibility, and exact certificates.

The visible embedding region of the (p, q) family inside (0, sigma_p)^2 is an
infinite union of open boxes

    box_i = (0, m_{i+1}/(p*m_i)) x (0, m_i/(p*m_{i+1}))

indexed by the branch sequence m_i.  Membership reduces to one exact search:
alpha_sup(i) increases strictly to sigma_p, so the minimal box whose width
exceeds alpha decides the verdict, and on failure the dominated inner corner
is an exact obstruction.  With alpha = n/d and beta = n'/d', the search runs
in integers on the family's cached branch: alpha < alpha_sup(i) iff
n*p*m_i < d*m_{i+1}, and beta < beta_sup(i) iff n'*p*m_{i+1} < d'*m_i.
`_Branch.first_wider` finds the minimal box by bisecting the terms the branch
holds; it grows the branch only when alpha lies beyond every held box, after
testing alpha against the limit on that side (sigma_p above, 1/(p^2 sigma_p)
below), so the walk ends.  At or below the lower limit every box is wide
enough, and the witness is the largest i <= 0 whose box is tall enough; on the
volume curve beta < beta_sup(i) iff 1/(p^2 beta) > alpha_sup(i), so the same
search finds it, and finds none when beta lies above sigma_p.
The family is looked up first, so a p that is not Markov or a q that is not
its companion is refused wherever the point lies.  Every box lies inside
(0, sigma_p)^2, so a box wider than alpha, or one taller than beta, shows that
the point is visible: only a beta taller than every held box is searched for
on the DoesNotEmbed path, which also grows the branch to a box that tall.
The verdict at an index, Embeds with box i or DoesNotEmbed at the inner corner
(m_i/(p*m_{i-1}), m_i/(p*m_{i+1})), depends only on the family and i, so each
box and corner is built once per family, with no check (see `_verdict`),
and kept on its branch, in one dict keyed by i for boxes and one for
corners.  A repeated verdict, decided inside the held terms, is one frame of
`embeds` and one of `first_wider`: it reads the numerator and denominator
slots of each Fraction, bisects, and reads its verdict from the dict, with
no Fraction built and no sigma_p test.  The dominance of the corner is checked
on every call, in integers: n*p*m_{i-1} >= d*m_i and n'*p*m_{i+1} >= d'*m_i.
The packing checks are the strict linear inequalities cut out by the triple
completing (p1, p2).  Box i is the corner at p of the Vianna triangle of
(p, m_{i+1}, m_i); up to GL2(Z) it is Delta_{p,q}(beta_sup(i), alpha_sup(i)) =
Delta_{p,p-q}(alpha_sup(i), beta_sup(i)), so atf_geometry's alpha is this
module's beta, for the same q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import _EXPORTS
from .exact_core import DomainError, Rational, _coprime_fraction, _Record, format_rational
from .markov import (
    CompanionMismatch,
    NoCommonTriple,
    _Branch,
    _corner,
    _family,
    _girdle,
    _require_companion,
    canonical_triple,
    two_ball_degree,
    validate_triple,
)

# markov's CompanionMismatch is also exported here, on its old import path
__all__ = [*_EXPORTS["staircase_oracle"], "CompanionMismatch"]


class StairBox(_Record):
    __slots__ = ("index", "alpha_sup", "beta_sup")
    index: int
    alpha_sup: Rational
    beta_sup: Rational

    def contains(self, alpha: Rational, beta: Rational) -> bool:
        return 0 < alpha < self.alpha_sup and 0 < beta < self.beta_sup

    def to_json(self) -> dict:
        return {
            "i": self.index,
            "alpha_sup": format_rational(self.alpha_sup),
            "beta_sup": format_rational(self.beta_sup),
        }


class EmbeddingVerdict(_Record):
    __slots__ = ("answer", "witness", "obstruction")
    answer: str  # "Embeds" | "DoesNotEmbed" | "OutsideVisibleRange"
    witness: Optional[StairBox]
    obstruction: Optional[tuple[Rational, Rational]]
    _defaults = (None, None)

    def to_json(self) -> dict:
        out: dict = {"answer": self.answer}
        if self.witness is not None:
            out["witness_box"] = self.witness.to_json()
        if self.obstruction is not None:
            out["obstruction"] = [format_rational(x) for x in self.obstruction]
        return out


_OUTSIDE = EmbeddingVerdict("OutsideVisibleRange")


def _verdict(p: int, br: _Branch, i: int, answer: str) -> EmbeddingVerdict:
    """The verdict `answer` decided at index i of the branch: Embeds with box i,
    kept in `box_verdicts`, or DoesNotEmbed at the inner corner
    (m_i/(p*m_{i-1}), m_i/(p*m_{i+1})), kept in `corner_verdicts`.  Each is
    built on first use, with no check: box i's outer corner is on the volume
    curve, (m_{i+1}/(p*m_i))*(m_i/(p*m_{i+1})) = 1/p^2, for any nonzero
    terms, and they are Markov with p as the branch's valley pair is.  A
    frozen verdict is safe to share; embeds reads the two dicts itself and
    comes here on a miss."""
    if answer == "Embeds":
        kept = br.box_verdicts
        if i not in kept:
            a, b = br[i], br[i + 1]
            kept[i] = EmbeddingVerdict(answer, witness=StairBox(i, _corner(p, b, a),
                                                                _corner(p, a, b)))
    else:
        kept = br.corner_verdicts
        if i not in kept:
            kept[i] = EmbeddingVerdict(answer, obstruction=(_corner(p, br[i], br[i - 1]),
                                                            _corner(p, br[i], br[i + 1])))
    return kept[i]


def stair_boxes(p: int, q: int, i_lo: int, i_hi: int) -> list[StairBox]:
    if i_lo > i_hi:
        raise DomainError(f"empty index window: {i_lo} > {i_hi}")
    # alpha_sup increases strictly: m_{i+1}*m_{i-1} - m_i^2 is kept by the
    # recurrence and is p^2 at the valley pair, by the Markov equation, so
    # alpha_sup(i) - alpha_sup(i-1) = p/(m_i*m_{i-1}) > 0
    br = _family(p, q)
    return [_verdict(p, br, i, "Embeds").witness for i in range(i_lo, i_hi + 1)]


def embeds(p: int, q: int, alpha: Rational, beta: Rational) -> EmbeddingVerdict:
    if type(alpha) is not Fraction:
        alpha = Fraction(alpha)
    if type(beta) is not Fraction:
        beta = Fraction(beta)
    # the slots behind the numerator and denominator properties
    n, d = alpha._numerator, alpha._denominator
    nb, db = beta._numerator, beta._denominator
    if n <= 0 or nb <= 0:
        raise DomainError("alpha and beta must be positive")
    if p < 1:
        raise DomainError(f"p must be positive: {p}")
    m = _family(p, q)  # a p that is not Markov, or a q not its companion, is refused here
    v, pn, pnb = m.values, p * n, p * nb
    i = m.first_wider(pn, d)
    if i is None:
        if 2 * n > 3 * d:  # alpha above sigma_p: no box is wide enough
            return _OUTSIDE
        # alpha at or below the limit of alpha_sup: every box is wide enough.
        # The witness is the largest i <= 0 with beta < beta_sup(i).  If box 0
        # is too short, the first j with beta_sup(j) < beta, that is
        # 1/(p^2 beta) < alpha_sup(j), is at most 1, and the witness is j - 1,
        # or j - 2 when beta_sup(j - 1) = beta; there is no j when beta is
        # above sigma_p, the limit of beta_sup at -infinity
        i = 0
        if pnb * v[1] >= db * v[0]:
            i = m.first_wider(db, pnb)
            if i is None:
                return _OUTSIDE
            i -= 1
            if pnb * v[i + 1] >= db * v[i]:
                i -= 1
        return m.box_verdicts.get(i) or _verdict(p, m, i, "Embeds")
    if pnb * v[i + 1] < db * v[i]:
        return m.box_verdicts.get(i) or _verdict(p, m, i, "Embeds")
    # beta >= beta_sup(i).  It lies below sigma_p when the tallest held box is
    # as tall; otherwise the search for 1/(p^2 beta), as above, decides it and
    # holds a box that tall for the next query
    lo = m._lo
    if pnb * v[lo + 1] > db * v[lo] and m.first_wider(db, pnb) is None:
        return _OUTSIDE
    # (alpha, beta) dominates the inner corner i, checked in integers
    if not (pn * v[i - 1] >= d * v[i] and pnb * v[i + 1] >= db * v[i]):
        raise AssertionError("obstruction corner is not dominated")
    return m.corner_verdicts.get(i) or _verdict(p, m, i, "DoesNotEmbed")


def pin_ball_capacity(p: int, q: int) -> Rational:
    """Largest a with the round ball of width a embedding on the diagonal."""
    _, a, b = canonical_triple(p, q)
    return min(_corner(p, a, b), _corner(p, b, a))


class TwoBallReport(_Record):
    __slots__ = ("answer", "p3", "bounds", "binding", "implied")
    answer: str  # "feasible" | "infeasible" | "unknown"
    p3: Optional[int]
    bounds: dict  # name -> Rational sup
    binding: tuple[str, ...]
    implied: Optional[str]

    @property
    def feasible(self) -> Optional[bool]:
        return None if self.answer == "unknown" else self.answer == "feasible"


def two_ball_feasible(p1: int, q1: int, alpha1: Rational,
                      p2: int, q2: int, alpha2: Rational) -> TwoBallReport:
    alpha1, alpha2 = Fraction(alpha1), Fraction(alpha2)
    if alpha1 <= 0 or alpha2 <= 0:
        raise DomainError("ball widths must be positive")
    _require_companion(p1, q1)
    _require_companion(p2, q2)
    try:
        p3 = two_ball_degree(p1, p2)
    except NoCommonTriple:
        if 1 in (p1, p2):
            # constraints for this case exist but lie outside the strict
            # triple framework; refuse to guess
            return TwoBallReport("unknown", None, {}, (), None)
        raise
    bounds = {
        "alpha1": _corner(p1, p2, p3),
        "alpha2": _corner(p2, p1, p3),
        "sum": _corner(p1, p3, p2),
    }
    values = {"alpha1": alpha1, "alpha2": alpha2, "sum": alpha1 + alpha2}
    binding = tuple(k for k in ("alpha1", "alpha2", "sum") if values[k] >= bounds[k])
    # the alpha bound on the side of the larger p follows from the sum bound
    implied = "alpha1" if p3 <= p2 else "alpha2"
    if bounds["sum"] > bounds[implied]:
        raise AssertionError("implied-bound comparison failed")
    return TwoBallReport("feasible" if not binding else "infeasible",
                         p3, bounds, binding, implied)


class ThreeBallReport(_Record):
    __slots__ = ("answer", "bounds", "binding")
    answer: str
    bounds: dict  # pair (i, j) -> Rational sup on alpha_i + alpha_j
    binding: tuple[tuple[int, int], ...]

    @property
    def feasible(self) -> bool:
        return self.answer == "feasible"


def three_ball_feasible(triple, alphas, qs=None) -> ThreeBallReport:
    p1, p2, p3 = validate_triple(triple)
    a = [Fraction(x) for x in alphas]
    if len(a) != 3 or any(x <= 0 for x in a):
        raise DomainError("need three positive ball widths")
    if qs is not None:
        qs = tuple(qs)
        if len(qs) != 3:
            raise DomainError(f"need three companions, one per ball: got {len(qs)}")
        for p, q in zip(triple, qs):
            _require_companion(p, q)
    bounds = {
        (1, 2): _corner(p1, p3, p2),
        (1, 3): _corner(p1, p2, p3),
        (2, 3): _corner(p2, p1, p3),
    }
    binding = tuple(key for key, sup in bounds.items()
                    if a[key[0] - 1] + a[key[1] - 1] >= sup)
    return ThreeBallReport("feasible" if not binding else "infeasible", bounds, binding)


class ObstructionCertificate(_Record):
    __slots__ = ("p", "q", "index", "triple", "p3_prime", "s", "girdle_length", "displacement")
    p: int
    q: int
    index: int
    triple: tuple[int, int, int]
    p3_prime: int
    s: Rational  # self-pairing witness  -p2*p3'/p1^2
    girdle_length: Rational  # p1*p3/(p2*p3')
    displacement: Rational  # p3/p1


def obstruction_certificate(p: int, q: int, i: int) -> ObstructionCertificate:
    """s*L + D = 0 at inner corner i.  _girdle's closed forms give s*L = -p3/p1 = -D for
    any nonzero entries: this cross-checks two modules' formulas, not that the corner obstructs."""
    # (p, m_{i+1}, m_i) is Markov, as the branch's valley pair is, and the
    # girdle's p3' = 3p*m_i - m_{i+1} is the term m_{i-1} of the recurrence
    br = _family(p, q)
    p1, p2, p3 = p, br[i + 1], br[i]
    p3p, length, disp = _girdle(p1, p2, p3)
    s = _coprime_fraction(-p2 * p3p, p1 * p1)  # p2*p3' = p1^2 + p3^2 is prime to p1
    (sn, sd), (ln, ld), (dn, dd) = (x.as_integer_ratio() for x in (s, length, disp))
    if sn * ln * dd + dn * sd * ld:  # s*L + D = 0, its denominators cleared
        raise AssertionError(f"certificate identity fails at ({p},{q},{i})")
    return ObstructionCertificate(p, q, i, (p1, p2, p3), p3p, s, length, disp)
