import random
from fractions import Fraction
from itertools import product

import pytest

from arboreal import catalog as cat
from arboreal import padic
from arboreal.hnn import (
    ScaleAction,
    UnrootedVertex,
    canonical_vertices,
    canonicalize,
    hnn_multiply,
    parse_hnn,
    theta_apply,
    theta_map,
)
from arboreal.lifting import GgsVector, ggs_lifting
from arboreal.padic import (
    DILATION_MARGIN,
    DILATION_TAIL,
    AffineModel,
    AffineModelError,
    BoundaryPoint,
    DilationMismatch,
    PrecisionError,
    boundary_apply,
    boundary_distance,
    dilation_factor_empirical,
)


# ---------------------------------------------------------------------------
# labels, digits and exact values: the oracle for the metric and the Q_p isometry

def parse_point(text, size=2, pad=0):
    """Point from an abbreviated label such as ".010" or "1.101"."""
    text = text.strip().replace("…", "")
    if text.endswith("..."):
        text = text[:-3]
    if text.count(".") != 1:
        raise ValueError(f"need exactly one dot in {text!r}")
    head, _, tail = text.partition(".")
    digits = tuple(int(c) for c in head + tail)
    offset = 1 - len(head)
    return BoundaryPoint(offset, digits, size, pad)


def _end(x):
    """Largest known position of a point."""
    return x.offset + len(x.digits) - 1


def _digit(x, i):
    """Digit of x at a known position i; positions below the window are padding."""
    assert i <= _end(x)
    return x.pad if i < x.offset else x.digits[i - x.offset]


def distance_value(x, y):
    """The ultrametric d^(-l+1) as an exact rational; None if equal to precision."""
    l = boundary_distance(x, y)
    if l is None:
        return None
    return Fraction(x.size) ** (-l + 1)


def phi_value(x):
    """Exact rational value of the label: digit at position i weighs p^(i-1).

    Defined for points padded with the letter 0 (the p-adic picture); the
    construction is d-adic, so p is the alphabet size and need not be
    prime.
    """
    if x.pad != 0:
        raise ValueError("phi needs 0-padding; this point follows a different spine")
    p = x.size
    total = Fraction(0)
    for k, digit in enumerate(x.digits):
        i = x.offset + k
        total += digit * Fraction(p) ** (i - 1)
    return total


def padic_valuation(q, p):
    """v_p of a nonzero rational, exactly."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if q == 0:
        raise ValueError("the valuation of 0 is infinite")
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def vertex_label(v, action, window=8):
    """Boundary label of the geodesic through a vertex, padded with the spine.

    The word of (m, w) occupies positions -m+1 .. len(w)-m; the label is
    completed downward with the spine letter up to the window size.
    """
    v = canonicalize(v, action.letter)
    pad = action.letter
    digits = v.word + (pad,) * window
    return BoundaryPoint(1 - v.copy, digits, action.automaton.size, pad)


def test_parse_and_format():
    xi = parse_point(".010")
    assert (xi.offset, xi.digits) == (1, (0, 1, 0))
    eta = parse_point("1.101")
    assert (eta.offset, eta.digits) == (0, (1, 1, 0, 1))
    assert str(eta) == "1.101"
    assert str(parse_point("001.101")) == "1.101"  # leading zeros elided
    assert str(BoundaryPoint(1, (0, 1, 0))) == ".010"
    assert parse_point(".010...").digits == (0, 1, 0)
    assert parse_point("1.").digits == (1,)
    with pytest.raises(ValueError):
        parse_point("0101")


def test_format_parse_roundtrip():
    import random
    rng = random.Random(2)
    for _ in range(100):
        x = BoundaryPoint(rng.randint(-4, 2), tuple(rng.randrange(2) for _ in range(6)))
        y = parse_point(str(x))
        lo = min(x.offset, y.offset)
        hi = min(_end(x), _end(y))
        assert all(_digit(x, i) == _digit(y, i) for i in range(lo, hi + 1))
        assert boundary_distance(x, y) is None


def test_point_validation():
    with pytest.raises(ValueError):
        BoundaryPoint(0, (2,), size=2)
    with pytest.raises(ValueError):
        BoundaryPoint(0, (0,), size=2, pad=3)


def test_distance_figure_labels():
    # xi = .010..., eta = 1.101... disagree first at position 0
    xi = parse_point(".010")
    eta = parse_point("1.101")
    assert boundary_distance(xi, eta) == 0
    assert distance_value(xi, eta) == 2  # d^{-0+1}


def test_distance_equal_to_precision():
    x = parse_point(".010")
    assert boundary_distance(x, x) is None
    longer = BoundaryPoint(1, (0, 1, 0, 1, 1))
    assert boundary_distance(x, longer) is None  # agree on the comparable range


def test_distance_spine_vs_deep():
    for k in range(5):
        spine = BoundaryPoint(1, (0,) * 8)
        y = BoundaryPoint(1, (0,) * k + (1,) + (0,) * 3)
        assert boundary_distance(spine, y) == k + 1
        assert distance_value(spine, y) == Fraction(1, 2 ** k)


def test_distance_needs_same_spine():
    with pytest.raises(ValueError):
        boundary_distance(BoundaryPoint(0, (0,), pad=0), BoundaryPoint(0, (0,), pad=1))


def test_phi_values():
    assert phi_value(BoundaryPoint(1, (0,) * 6)) == 0          # spine -> 0
    assert phi_value(parse_point(".010")) == 2                 # the uniformizer p
    assert phi_value(parse_point("1.1")) == Fraction(1, 2) + 1
    with pytest.raises(ValueError):
        phi_value(BoundaryPoint(0, (0, 1), pad=1))


def test_phi_valuation_matches_distance():
    rng = random.Random(21)
    for _ in range(200):
        offset = rng.randint(-5, 1)
        x = BoundaryPoint(offset, tuple(rng.randrange(2) for _ in range(9)))
        y = BoundaryPoint(offset, tuple(rng.randrange(2) for _ in range(9)))
        l = boundary_distance(x, y)
        if l is None:
            continue
        diff = phi_value(x) - phi_value(y)
        assert padic_valuation(diff, 2) == l - 1


def test_padic_valuation():
    assert padic_valuation(Fraction(8), 2) == 3
    assert padic_valuation(Fraction(3, 4), 2) == -2
    with pytest.raises(ValueError):
        padic_valuation(Fraction(0), 2)
    for p in (0, -2):
        with pytest.raises(ValueError, match="p must be >= 2"):
            padic_valuation(Fraction(3, 4), p)


def test_theta_t_moves_dot():
    action = cat.get("basilica").action()
    t = parse_hnn("t", action)
    assert str(boundary_apply(t, parse_point("1.101"), action)) == "11.01"
    T = parse_hnn("T", action)
    assert str(boundary_apply(T, parse_point("1.101"), action)) == ".1101"


def test_identity_leaves_points():
    action = cat.get("basilica").action()
    e = parse_hnn("1", action)
    x = parse_point(".0110")
    assert boundary_apply(e, x, action) == x


def test_boundary_apply_rejects_another_alphabet():
    gs5 = cat.get("gs5").action()
    with pytest.raises(ValueError, match="alphabet size"):
        boundary_apply(parse_hnn("t", gs5), BoundaryPoint(1, (0, 1, 0, 1)), gs5)
    basilica = cat.get("basilica").action()
    with pytest.raises(ValueError, match="alphabet size"):
        boundary_apply(parse_hnn("a*b", basilica), BoundaryPoint(1, (2, 1, 0), size=3), basilica)


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_theta_and_boundary_agree_on_vertex_labels(gid, sigma_name):
    # theta_apply and boundary_apply read one vertex in two coordinates:
    # the label of theta(e)v agrees with theta(e) of v's label through
    # the level of theta(e)v
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    symbols = [f"{n}^-1" for n in entry.generators] + list(entry.generators) + ["t", "T"]
    vertices = list(canonical_vertices(action, 3, 3))
    rng = random.Random(21)
    for _ in range(60):
        e = parse_hnn("*".join(rng.choice(symbols) for _ in range(rng.randrange(1, 7))), action)
        v = rng.choice(vertices)
        image = theta_apply(e, v, action)
        l = boundary_distance(boundary_apply(e, vertex_label(v, action), action),
                              vertex_label(image, action))
        assert l is None or l > image.level


def test_grigorchuk_theta_a_on_rooted_points():
    # points inside T^(0) (offset 1): theta(a) acts as a, flipping the
    # first digit; oracle = the rooted action
    entry = cat.get("grigorchuk")
    action = entry.action()
    a = entry.elements()["a"]
    rng = random.Random(6)
    for _ in range(50):
        digits = tuple(rng.randrange(2) for _ in range(6))
        x = BoundaryPoint(1, digits, pad=1)
        out = boundary_apply(action.element(a.word), x, action)
        assert out.digits == a.act(digits)
        assert out.digits[0] != digits[0]


def test_boundary_apply_composes():
    action = cat.get("basilica").action()
    rng = random.Random(13)
    words = ["t*a", "b*T", "a*b^-1", "t^2*b*T", "T*a*t", "a", "t", "T"]
    for _ in range(500):
        e1 = parse_hnn(rng.choice(words), action)
        e2 = parse_hnn(rng.choice(words), action)
        offset = rng.randint(-4, 1)
        x = BoundaryPoint(offset, tuple(rng.randrange(2) for _ in range(10)))
        lhs = boundary_apply(hnn_multiply(e1, e2, action), x, action)
        rhs = boundary_apply(e2, boundary_apply(e1, x, action), action)
        # Convention 2.2: the product acts e1 first; windows may differ in
        # padding, compare digit functions on the common known range
        lo = min(lhs.offset, rhs.offset)
        hi = min(_end(lhs), _end(rhs))
        assert lhs.pad == rhs.pad
        assert all(_digit(lhs, i) == _digit(rhs, i) for i in range(lo, hi + 1))


def test_dilation_exponents():
    for gid in ("basilica", "grigorchuk", "lamplighter"):
        entry = cat.get(gid)
        action = entry.action()
        gens = "".join(entry.generators)
        assert dilation_factor_empirical(
            action.element(entry.element(gens).word), action, samples=1000, seed=8) == 0
        assert dilation_factor_empirical(
            parse_hnn("t", action), action, samples=1000, seed=8) == 1
        assert dilation_factor_empirical(
            parse_hnn("T", action), action, samples=1000, seed=8) == -1
        assert dilation_factor_empirical(
            parse_hnn("1", action), action, samples=100, seed=8) == 0


def test_dilation_matches_net_displacement():
    action = cat.get("basilica").action()
    for text, expected in [("t^2*a", 2), ("T*b*T", -2), ("t*a*T*b", 0)]:
        e = parse_hnn(text, action)
        assert dilation_factor_empirical(e, action, samples=300, seed=9) == expected
        assert expected == e.tpos - e.tneg


def test_dilation_sample_guard():
    action = cat.get("basilica").action()
    with pytest.raises(ValueError):
        dilation_factor_empirical(parse_hnn("t", action), action, samples=1)


def _sampled_pairs(monkeypatch, e, action, samples, seed):
    """The sampler's pairs as ((offset, x), x image, (offset, y), y image);
    the sampler binds theta(e) once."""
    bound, calls = [], []

    def binding(e, action):
        apply = theta_map(e, action)
        bound.append(e)

        def recording(offset, digits):
            image = apply(offset, digits)
            calls.append(((offset, digits), image))
            return image
        return recording

    with monkeypatch.context() as patch:
        patch.setattr(padic, "theta_map", binding)
        dilation_factor_empirical(e, action, samples=samples, seed=seed)
    assert bound == [e] and len(calls) == 2 * samples
    return [(*a, *b) for a, b in zip(calls[::2], calls[1::2])]


def _ternary_action():
    built = ggs_lifting(GgsVector(3, (1, 0)))
    return ScaleAction(built.automaton, built.sigma)


@pytest.mark.parametrize("gid, sigma_name", [
    (entry.id, name) for entry in cat.catalog().values() for name in entry.substitutions])
def test_sampled_pairs_match_boundary_apply(monkeypatch, gid, sigma_name):
    # oracle: each pair's raw window images are boundary_apply's images of
    # the matching points; the pair agrees below its branch and differs at it
    entry = cat.get(gid)
    action = entry.action(sigma_name)
    d, pad = action.automaton.size, action.letter
    for text in ("t", "*".join(entry.generators), "t^-2*a*t^5"):
        e = parse_hnn(text, action)
        margin = max(DILATION_MARGIN, e.tneg + e.tpos + 1)
        branches = set()
        for (ox, x), x_image, (oy, y), y_image in _sampled_pairs(monkeypatch, e, action, 100, 4):
            assert ox == oy and len(x) == len(y) == margin + 1 + DILATION_TAIL
            assert x[:margin] == y[:margin] and x[margin] != y[margin]
            branches.add(ox + margin)
            for offset, digits, image in ((ox, x, x_image), (oy, y, y_image)):
                point = BoundaryPoint(offset, digits, d, pad)
                assert boundary_apply(e, point, action) == BoundaryPoint(*image, d, pad)
        assert branches == set(range(-2, 7))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sampled_pairs_cover_every_ordered_pair_of_branch_digits(monkeypatch, d):
    action = {2: cat.get("grigorchuk").action(), 3: _ternary_action(),
              5: cat.get("gs5").action(), 7: cat.get("gs7").action()}[d]
    assert action.automaton.size == d
    pairs = _sampled_pairs(monkeypatch, parse_hnn("t", action), action, 500, 6)
    seen = {(x[DILATION_MARGIN], y[DILATION_MARGIN]) for (_, x), _, (_, y), _ in pairs}
    assert seen == {(a, b) for a in range(d) for b in range(d) if a != b}


def test_draws_read_off_onto_every_pair_once(monkeypatch):
    # with a one-digit margin and tail, the draws 0 .. N-1 give every
    # (branch, x, y) exactly once: the fields are uniform and independent
    monkeypatch.setattr(padic, "DILATION_MARGIN", 1)
    monkeypatch.setattr(padic, "DILATION_TAIL", 1)
    draws = 9 * 3 ** 3 * 2 * 3

    class Counting:
        def __init__(self, seed):
            self.draws = iter(range(draws))

        def randrange(self, n):
            assert n == draws
            return next(self.draws)

    action = _ternary_action()
    monkeypatch.setattr(random, "Random", Counting)
    pairs = _sampled_pairs(monkeypatch, parse_hnn("1", action), action, draws, 0)
    assert sorted((ox, x, y) for (ox, x), _, (_, y), _ in pairs) == sorted(
        (branch - 1, x, (x[0], b, tail))
        for branch in range(-2, 7) for x in product(range(3), repeat=3)
        for b in range(3) if b != x[1] for tail in range(3))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("text, margin", [("t", 4), ("t^7", 8), ("t^40", 41)])
def test_draws_decode_to_the_mixed_radix_fields(monkeypatch, d, text, margin):
    # oracle: each draw read off one digit at a time; windows of 9, 13 and
    # 46 digits span several chunks of the digit tables
    action = _ternary_action() if d == 3 else cat.get(
        {2: "grigorchuk", 5: "gs5", 7: "gs7"}[d]).action()
    draws = []

    class Recording(random.Random):
        def randrange(self, n):
            draws.append(super().randrange(n))
            return draws[-1]

    monkeypatch.setattr(random, "Random", Recording)
    pairs = _sampled_pairs(monkeypatch, parse_hnn(text, action), action, 2000, d)
    width = margin + 1 + DILATION_TAIL
    assert len(draws) == len(pairs)
    for r, ((ox, x), _, (oy, y), _) in zip(draws, pairs):
        want = tuple(r // (9 * d ** k) % d for k in range(width))
        q = r // (9 * d ** width)
        tail = tuple(q // ((d - 1) * d ** k) % d for k in range(DILATION_TAIL))
        assert ox == oy == r % 9 - 2 - margin and x == want
        assert y == want[:margin] + ((want[margin] + 1 + q % (d - 1)) % d,) + tail


@pytest.mark.parametrize("fault, error", [("collapse", PrecisionError),
                                          ("shift", DilationMismatch),
                                          ("late", DilationMismatch)])
@pytest.mark.parametrize("gid, text", [("basilica", "a*b"), ("gs7", "t^-2*a*t^5")])
def test_dilation_catches_a_broken_action(monkeypatch, fault, error, gid, text):
    # collapse: each pair's second image is its first; shift: every other
    # image moves up one position; late: every second pair's second image
    # is its first with the last digit changed, so the pair first differs
    # at the end of its window (on every pair, that would be one constant
    # exponent)
    action = cat.get(gid).action()
    d, images = action.automaton.size, []

    def broken(e, action):
        apply = theta_map(e, action)

        def faulty(offset, digits):
            images.append(apply(offset, digits))
            if len(images) % 2 or fault == "late" and len(images) % 4:
                return images[-1]
            if fault == "collapse":
                return images[-2]
            if fault == "late":
                offset, digits = images[-2]
                return offset, digits[:-1] + ((digits[-1] + 1) % d,)
            return images[-1][0] + 1, images[-1][1]
        return faulty

    monkeypatch.setattr(padic, "theta_map", broken)
    with pytest.raises(error):
        dilation_factor_empirical(parse_hnn(text, action), action, samples=200, seed=3)


def test_ultrametric_inequality():
    rng = random.Random(30)
    for _ in range(300):
        pts = [BoundaryPoint(rng.randint(-5, 1),
                             tuple(rng.randrange(2) for _ in range(10)))
               for _ in range(3)]
        x, y, z = pts
        lxy, lyz, lxz = (boundary_distance(x, y), boundary_distance(y, z),
                         boundary_distance(x, z))
        if None in (lxy, lyz, lxz):
            continue
        # d(x,z) <= max(d(x,y), d(y,z)) means l(x,z) >= min(l(x,y), l(y,z))
        assert lxz >= min(lxy, lyz)


def test_vertex_label_consistency():
    action = cat.get("basilica").action()
    v = UnrootedVertex(2, (1, 0, 1))
    label = vertex_label(v, action, window=6)
    assert label.offset == -1
    assert label.digits[:3] == (1, 0, 1)
    assert label.digits[3:] == (0,) * 6


BS13_AFFINE = {"relabel": [[0, 1], [1, 0]],
               "maps": {"a": ["1/3", "-1/3"], "b": ["1/3", "-2/3"], "c": ["1/3", "0"]}}


def _with(**changes):
    spec = {"relabel": BS13_AFFINE["relabel"], "maps": dict(BS13_AFFINE["maps"])}
    spec["maps"].update(changes.pop("maps", {}))
    return spec | changes


def test_affine_certificate_accepts_bs13():
    model = AffineModel(cat.get("bs13").automaton, BS13_AFFINE)
    assert model.is_identity(()) and not model.is_identity((("a", 1),))


@pytest.mark.parametrize("gid, spec", [
    # ROADMAP item 6 gate: the groups that are not affine fail with bs13's maps
    ("grigorchuk", _with(maps={"d": ["1/3", "0"]})),
    ("basilica", {"relabel": BS13_AFFINE["relabel"],
                  "maps": {"a": ["1/3", "-1/3"], "b": ["1/3", "-2/3"]}}),
    ("bs13", _with(maps={"b": ["1/3", "-1/3"]})),          # perturbed b
    ("bs13", _with(relabel=[[0, 1]])),                     # period-1 relabelling
    ("bs13", _with(maps={"a": ["2", "-1/3"]})),            # non-unit alpha on d = 2
    ("bs13", _with(maps={"a": ["1/3", "1/2"]})),           # non-integral beta
])
def test_affine_certificate_rejects_and_names_the_failure(gid, spec):
    with pytest.raises(AffineModelError, match=r"at word (1|[a-d](\^-1)?), phase [01], letter [01]$"):
        AffineModel(cat.get(gid).automaton, spec)


@pytest.mark.parametrize("spec", [
    {"relabel": [[0, 1]]},
    {"relabel": [[0, 0]], "maps": BS13_AFFINE["maps"]},
    {"relabel": [], "maps": BS13_AFFINE["maps"]},
    _with(maps={"c": ["0", "0"]}),
    _with(maps={"c": ["1/3"]}),
    _with(maps={"c": ["x", "0"]}),
    _with(maps={"d": ["1", "0"]}),
    [1, 2],
])
def test_affine_model_malformed_is_a_typed_error(spec):
    with pytest.raises(AffineModelError):
        AffineModel(cat.get("bs13").automaton, spec)
