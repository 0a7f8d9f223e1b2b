"""Group actions on R^d by exactly-invertible diffeomorphisms.

A Diffeo stores forward and inverse component expressions over named
coordinates (possibly involving group parameters and constants).  Groups come
in two flavors: FiniteGroup (explicit multiplication table) and ParamGroup
(elements are tuples of expressions in named parameters, with symbolic
product and inverse laws).  An ActionSpec ties a group to a diffeomorphism
for every element and can verify the action axioms, exactly where the
expressions canonicalize and by sampled evaluation otherwise.
"""

from __future__ import annotations

from fractions import Fraction
import functools
import random

from .expr import (Expr, ExprError, VarBinding, ZeroCheck, all_zero, as_expr,
                   is_zero, parse)
from .report import Report


# ---------------------------------------------------------------------------
# diffeomorphisms


class Diffeo:
    """Invertible map of R^d given by forward and inverse expressions."""

    def __init__(self, coords, forward, inverse):
        self.coords = list(coords)
        self.forward = [as_expr(c) for c in forward]
        self.inverse = [as_expr(c) for c in inverse]
        if not (len(self.forward) == len(self.inverse) == len(self.coords)):
            raise ValueError("component count must match coordinate count")

    @property
    def dim(self):
        return len(self.coords)

    @staticmethod
    def identity(coords):
        vars_ = [Expr.var(c) for c in coords]
        return Diffeo(coords, vars_, vars_)

    def is_identity(self):
        return all(is_zero(f - Expr.var(c)).ok
                   for f, c in zip(self.forward, self.coords))

    def substitute_params(self, mapping):
        return Diffeo(self.coords,
                      [f.substitute(mapping) for f in self.forward],
                      [g.substitute(mapping) for g in self.inverse])

    def pullback(self, e):
        """Compose a scalar expression with the inverse map: e o phi^{-1}."""
        mapping = dict(zip(self.coords, self.inverse))
        return as_expr(e).substitute(mapping)

    def pushforward(self, e):
        mapping = dict(zip(self.coords, self.forward))
        return as_expr(e).substitute(mapping)

    def verify_inverse(self, rng=None):
        """Certificates that forward o inverse and inverse o forward are id."""
        inv_map = dict(zip(self.coords, self.inverse))
        fwd_map = dict(zip(self.coords, self.forward))
        checks = []
        for c, f, g in zip(self.coords, self.forward, self.inverse):
            checks.append(is_zero(f.substitute(inv_map) - Expr.var(c), rng=rng))
            checks.append(is_zero(g.substitute(fwd_map) - Expr.var(c), rng=rng))
        return checks

    def jacobian_det(self):
        return _det([[f.diff(c) for c in self.coords] for f in self.forward])

    def __repr__(self):
        return "Diffeo(%s -> %s)" % (self.coords, [str(f) for f in self.forward])


def _det(m):
    n = len(m)
    if n == 0:
        return Expr.one()
    if n == 1:
        return m[0][0]
    out = Expr.zero()
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        out = out + Expr.integer(sign) * m[0][j] * _det(minor)
        sign = -sign
    return out


def compose_diffeo(phi1, phi2):
    """Composition phi1 o phi2 (apply phi2 first)."""
    if phi1.coords != phi2.coords:
        raise ValueError("coordinate mismatch")
    fwd2 = dict(zip(phi2.coords, phi2.forward))
    inv1 = dict(zip(phi1.coords, phi1.inverse))
    forward = [f.substitute(fwd2) for f in phi1.forward]
    inverse = [g.substitute(inv1) for g in phi2.inverse]
    return Diffeo(phi1.coords, forward, inverse)


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """Finite group given by labels and a multiplication table of indices."""

    def __init__(self, labels, table, identity=0):
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.identity = identity
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be %dx%d" % (n, n))

    @property
    def size(self):
        return len(self.labels)

    def elements(self):
        return list(range(self.size))

    def mult(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        for b in range(self.size):
            if self.mult(a, b) == self.identity:
                return b
        raise ValueError("element %r has no inverse" % self.labels[a])

    def check(self):
        rep = Report("finite group axioms", {"size": self.size})
        n = self.size
        ok_assoc = all(self.mult(self.mult(a, b), c) == self.mult(a, self.mult(b, c))
                       for a in range(n) for b in range(n) for c in range(n))
        rep.add("associativity", ok_assoc)
        e = self.identity
        rep.add("identity", all(self.mult(e, a) == a and self.mult(a, e) == a
                                for a in range(n)))
        try:
            ok_inv = all(self.mult(a, self.inverse(a)) == e for a in range(n))
        except ValueError:
            ok_inv = False
        rep.add("inverses", ok_inv)
        return rep

    @staticmethod
    def cyclic(k):
        labels = ["e"] + ["g%d" % j for j in range(1, k)]
        table = [[(a + b) % k for b in range(k)] for a in range(k)]
        return FiniteGroup(labels, table, identity=0)

    def __repr__(self):
        return "FiniteGroup(%r)" % (self.labels,)


class ParamGroup:
    """Lie-type group whose elements are tuples of parameter expressions.

    The product and inverse laws are expressions over two (one) copies of
    the parameter names, suffixed __1 and __2 for the product slots.
    """

    def __init__(self, param_names, product, inverse, identity, samples=None):
        self.param_names = list(param_names)
        self.product_law = [as_expr(e) for e in product]
        self.inverse_law = [as_expr(e) for e in inverse]
        self.identity = tuple(as_expr(e) for e in identity)
        k = len(self.param_names)
        if not (len(self.product_law) == len(self.inverse_law) == len(self.identity) == k):
            raise ValueError("law component counts must match parameter count")
        self._samples = samples

    @property
    def nparams(self):
        return len(self.param_names)

    def slot_names(self, slot):
        return ["%s__%d" % (n, slot) for n in self.param_names]

    def symbolic_element(self, slot):
        return tuple(Expr.var(n) for n in self.slot_names(slot))

    def element(self, *values):
        if len(values) != self.nparams:
            raise ValueError("expected %d parameters" % self.nparams)
        return tuple(as_expr(v) for v in values)

    def mult(self, g1, g2):
        mapping = {}
        for name, v in zip(self.slot_names(1), g1):
            mapping[name] = v
        for name, v in zip(self.slot_names(2), g2):
            mapping[name] = v
        return tuple(law.substitute(mapping) for law in self.product_law)

    def inverse(self, g):
        mapping = dict(zip(self.param_names, g))
        return tuple(law.substitute(mapping) for law in self.inverse_law)

    def samples(self, rng, count=8):
        if self._samples is not None:
            return [tuple(as_expr(v) for v in s) for s in self._samples]
        out = []
        for _ in range(count):
            out.append(tuple(as_expr(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4])))
                             for _ in range(self.nparams)))
        return out

    def __repr__(self):
        return "ParamGroup(%r)" % (self.param_names,)


# ---------------------------------------------------------------------------
# actions


class ActionSpec:
    """A group together with a diffeomorphism for each element.

    For finite groups ``diffeos`` lists one Diffeo per element index.  For
    parameter groups the action is a template Diffeo whose components involve
    the parameter names (substituted per element), or a callable
    element -> Diffeo when the dependence is not closed-form.
    """

    def __init__(self, name, group, coords, diffeos=None, template=None,
                 diffeo_fn=None, volume_preserving=None, binding=None):
        self.name = name
        self.group = group
        self.coords = list(coords)
        self.diffeos = diffeos
        self.template = template
        self.diffeo_fn = diffeo_fn
        self.volume_preserving = volume_preserving
        self.binding = binding or VarBinding(coordinates=self.coords)
        if isinstance(group, FiniteGroup):
            if diffeos is None or len(diffeos) != group.size:
                raise ValueError("finite actions need one diffeo per element")
        else:
            if template is None and diffeo_fn is None:
                raise ValueError("parameter actions need a template or callable")

    @property
    def dim(self):
        return len(self.coords)

    @property
    def is_finite(self):
        return isinstance(self.group, FiniteGroup)

    def diffeo(self, g):
        if self.is_finite:
            return self.diffeos[g]
        if self.template is not None:
            mapping = dict(zip(self.group.param_names, g))
            return self.template.substitute_params(mapping)
        return self.diffeo_fn(g)

    def mult(self, g1, g2):
        return self.group.mult(g1, g2)

    def inverse(self, g):
        return self.group.inverse(g)

    def product(self, gs):
        """Group product g1 g2 ... gk of a tuple (the identity for the empty tuple)."""
        return functools.reduce(self.mult, gs) if gs else self.group.identity

    def product_diffeo(self, gs):
        """Diffeo of a product g1 g2 ... gk (identity for the empty tuple)."""
        if not gs:
            return Diffeo.identity(self.coords)
        return self.diffeo(self.product(gs))

    def sample_elements(self, rng, count=8):
        if self.is_finite:
            return self.group.elements()
        return self.group.samples(rng, count)

    def supports_symbolic_elements(self):
        return (not self.is_finite) and self.template is not None


def check_action(action, rng=None, samples=8):
    """Verify the action axioms; returns a Report.

    Checks: group axioms (finite) or sampled/symbolic law consistency
    (parametric), phi_e = id, phi_{g1 g2} = phi_{g1} o phi_{g2},
    phi_{g^{-1}} = phi_g^{-1}, declared forward/inverse pairs, and volume
    preservation when declared.
    """
    rng = rng if rng is not None else random.Random(0)
    rep = Report("action axioms: %s" % action.name,
                 {"group": repr(action.group), "coords": ",".join(action.coords)})

    if action.is_finite:
        rep.extend(action.group.check())
        pairs = [(a, b) for a in action.group.elements() for b in action.group.elements()]
    else:
        elems = action.sample_elements(rng, samples)
        pairs = [(elems[i], elems[j]) for i in range(len(elems))
                 for j in range(len(elems))][: samples * 2]
        if action.supports_symbolic_elements():
            g1 = action.group.symbolic_element(1)
            g2 = action.group.symbolic_element(2)
            pairs = [(g1, g2)] + pairs
        # group laws on samples: g * g^{-1} = e
        for idx, g in enumerate(elems):
            prod = action.group.mult(g, action.group.inverse(g))
            chk = all_zero(is_zero(comp - id_comp, rng=rng)
                           for comp, id_comp in zip(prod, action.group.identity))
            rep.add("inverse law sample %d" % idx, chk.ok, chk.kind)

    def differences(d1, d2):
        return [is_zero(f1 - f2, rng=rng) for f1, f2 in zip(d1.forward, d2.forward)]

    chk = all_zero(differences(action.diffeo(action.group.identity),
                               Diffeo.identity(action.coords)))
    rep.add("identity acts trivially", chk.ok, chk.kind)

    some = action.group.elements() if action.is_finite else action.sample_elements(rng, samples)
    chk = all_zero(c for g in some for c in action.diffeo(g).verify_inverse(rng=rng))
    rep.add("forward/inverse pairs", chk.ok, chk.kind)

    chk = all_zero(c for g1, g2 in pairs
                   for c in differences(action.diffeo(action.mult(g1, g2)),
                                        compose_diffeo(action.diffeo(g1), action.diffeo(g2))))
    rep.add("homomorphism phi_(g1*g2) = phi_g1 o phi_g2 (%d pairs)" % len(pairs),
            chk.ok, chk.kind)

    if action.volume_preserving:
        def unit_det(g):
            det = action.diffeo(g).jacobian_det()
            plus = is_zero(det - Expr.one(), rng=rng)
            minus = is_zero(det + Expr.one(), rng=rng)
            return ZeroCheck(plus.ok or minus.ok, plus.kind)

        chk = all_zero(unit_det(g) for g in some)
        rep.add("volume preservation |det| = 1", chk.ok, chk.kind)

    return rep


# ---------------------------------------------------------------------------
# built-in actions


def translations(dim=1, box=None):
    """R^d acting on itself by translations: x -> x + a."""
    coords = ["x%d" % (k + 1) for k in range(dim)] if dim > 1 else ["x1"]
    params = ["a%d" % (k + 1) for k in range(dim)]
    group = ParamGroup(
        params,
        product=[Expr.var("%s__1" % p) + Expr.var("%s__2" % p) for p in params],
        inverse=[-Expr.var(p) for p in params],
        identity=[Expr.zero()] * dim,
    )
    template = Diffeo(coords,
                      [Expr.var(c) + Expr.var(p) for c, p in zip(coords, params)],
                      [Expr.var(c) - Expr.var(p) for c, p in zip(coords, params)])
    binding = VarBinding(coordinates=coords, parameters=params)
    return ActionSpec("translations R^%d" % dim, group, coords, template=template,
                      volume_preserving=True, binding=binding)


def galilean_boosts():
    """One-parameter boosts on the (t, x) plane: (t, x) -> (t, x + v t)."""
    coords = ["t", "x"]
    group = ParamGroup(
        ["v"],
        product=[Expr.var("v__1") + Expr.var("v__2")],
        inverse=[-Expr.var("v")],
        identity=[Expr.zero()],
    )
    t, x, v = Expr.var("t"), Expr.var("x"), Expr.var("v")
    template = Diffeo(coords, [t, x + v * t], [t, x - v * t])
    binding = VarBinding(coordinates=coords, parameters=["v"], constants=["m"])
    return ActionSpec("galilean boosts", group, coords, template=template,
                      volume_preserving=True, binding=binding)


def cyclic_rotations(k):
    """C_k rotations of the plane; exactly representable for k in {1, 2, 4}."""
    if k not in (1, 2, 4):
        raise ValueError("exact rotation matrices exist only for k in {1, 2, 4}")
    coords = ["x", "y"]
    x, y = Expr.var("x"), Expr.var("y")
    group = FiniteGroup.cyclic(k)
    quarter = [(x, y), (-y, x), (-x, -y), (y, -x)]
    diffeos = []
    for j in range(k):
        fwd = quarter[(j * (4 // k)) % 4]
        inv = quarter[(-j * (4 // k)) % 4]
        diffeos.append(Diffeo(coords, list(fwd), list(inv)))
    binding = VarBinding(coordinates=coords)
    return ActionSpec("cyclic rotations C_%d" % k, group, coords, diffeos=diffeos,
                      volume_preserving=True, binding=binding)


def sign_flip():
    """C_2 acting on the line by x -> -x."""
    coords = ["x"]
    x = Expr.var("x")
    group = FiniteGroup.cyclic(2)
    diffeos = [Diffeo.identity(coords), Diffeo(coords, [-x], [-x])]
    return ActionSpec("sign flip C_2", group, coords, diffeos=diffeos,
                      volume_preserving=True,
                      binding=VarBinding(coordinates=coords))


def heisenberg():
    """3d Heisenberg group acting on R^3 by its adjoint-type affine maps.

    Elements (al, be, ga) multiply by
        (al1+al2, be1+be2, ga1+ga2 + (al2*be1 - al1*be2)/2)
    and act by (x, y, z) -> (x, y, z + al*y - be*x).
    """
    coords = ["x", "y", "z"]
    params = ["al", "be", "ga"]
    a1, b1, g1 = (Expr.var("al__1"), Expr.var("be__1"), Expr.var("ga__1"))
    a2, b2, g2 = (Expr.var("al__2"), Expr.var("be__2"), Expr.var("ga__2"))
    half = Expr.rational(1, 2)
    group = ParamGroup(
        params,
        product=[a1 + a2, b1 + b2, g1 + g2 + half * (a2 * b1 - a1 * b2)],
        inverse=[-Expr.var("al"), -Expr.var("be"), -Expr.var("ga")],
        identity=[Expr.zero()] * 3,
    )
    x, y, z = (Expr.var(c) for c in coords)
    al, be = Expr.var("al"), Expr.var("be")
    template = Diffeo(coords,
                      [x, y, z + al * y - be * x],
                      [x, y, z - al * y + be * x])
    binding = VarBinding(coordinates=coords, parameters=params)
    return ActionSpec("heisenberg adjoint", group, coords, template=template,
                      volume_preserving=True, binding=binding)


def multiplicative_trivial():
    """Multiplicative group of positive reals with the trivial action on R.

    The inverse law 1/g leaves the polynomial class, so its identities are
    certified by sampling rather than canonicalization.
    """
    coords = ["x"]
    g1, g2 = Expr.var("g__1"), Expr.var("g__2")
    group = ParamGroup(
        ["g"],
        product=[g1 * g2],
        inverse=[Expr.one() / Expr.var("g")],
        identity=[Expr.one()],
        samples=[(Fraction(1, 2),), (Fraction(3, 4),), (2,), (3,),
                 (Fraction(5, 3),), (Fraction(7, 2),), (1,), (Fraction(2, 5),)],
    )
    template = Diffeo.identity(coords)
    binding = VarBinding(coordinates=coords, parameters=["g"])
    return ActionSpec("multiplicative R+ (trivial action)", group, coords,
                      template=template, volume_preserving=True, binding=binding)


def integer_quarter_turns():
    """The integers acting on the plane through quarter-turn rotations.

    n acts by rotation by n*90 degrees, i.e. through the residue n mod 4;
    the dependence on n is not closed-form, so the action supplies a
    per-element callable and checks run on integer samples.
    """
    coords = ["x", "y"]
    group = ParamGroup(
        ["n"],
        product=[Expr.var("n__1") + Expr.var("n__2")],
        inverse=[-Expr.var("n")],
        identity=[Expr.zero()],
        samples=[(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,), (4,)],
    )
    rot = cyclic_rotations(4)

    def diffeo_fn(g):
        (n,) = g
        if not n.is_const():
            raise ExprError("quarter-turn action needs concrete integers")
        val = n.const_value()
        if val.im != 0 or val.re.denominator != 1:
            raise ExprError("quarter-turn action needs concrete integers")
        return rot.diffeos[int(val.re) % 4]

    binding = VarBinding(coordinates=coords, parameters=["n"])
    return ActionSpec("integer quarter turns", group, coords, diffeo_fn=diffeo_fn,
                      volume_preserving=True, binding=binding)


def trivial_action(group, coords):
    """Any group acting trivially (every element maps to the identity)."""
    ident = Diffeo.identity(coords)
    binding = VarBinding(coordinates=list(coords))
    if isinstance(group, FiniteGroup):
        return ActionSpec("trivial action", group, coords,
                          diffeos=[ident] * group.size,
                          volume_preserving=True, binding=binding)
    return ActionSpec("trivial action", group, coords, template=ident,
                      volume_preserving=True, binding=binding)


BUILTIN_ACTIONS = {
    "translations_1d": lambda: translations(1),
    "translations_2d": lambda: translations(2),
    "galilean": galilean_boosts,
    "rotations_c2": lambda: cyclic_rotations(2),
    "rotations_c4": lambda: cyclic_rotations(4),
    "sign_flip_c2": sign_flip,
    "heisenberg": heisenberg,
    "multiplicative_trivial": multiplicative_trivial,
    "integer_quarter_turns": integer_quarter_turns,
}


# ---------------------------------------------------------------------------
# action definition files
#
# Format (line oriented, # comments, key = value, [section] headers):
#
#   [action]
#   builtin = galilean            # either a builtin name ...
#
#   [action]                      #  ... or an explicit parametric action
#   coords = t, x
#   params = v
#   constants = m
#   forward = t, x + v*t
#   inverse = t, x - v*t
#   product = v__1 + v__2
#   param_inverse = -v
#   param_identity = 0
#   volume_preserving = yes


def _split_exprs(text, binding):
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current += ch
    parts.append(current)
    return [parse(p.strip(), binding) for p in parts]


def action_from_config(section):
    """Build an ActionSpec from a parsed config section (dict of strings)."""
    if "builtin" in section:
        name = section["builtin"].strip()
        if name not in BUILTIN_ACTIONS:
            raise ValueError("unknown builtin action %r (have: %s)"
                             % (name, ", ".join(sorted(BUILTIN_ACTIONS))))
        return BUILTIN_ACTIONS[name]()
    coords = [c.strip() for c in section["coords"].split(",")]
    params = [p.strip() for p in section.get("params", "").split(",") if p.strip()]
    consts = [c.strip() for c in section.get("constants", "").split(",") if c.strip()]
    binding = VarBinding(coordinates=coords, parameters=params, constants=consts)
    slot_binding = VarBinding(
        coordinates=coords,
        parameters=params + ["%s__1" % p for p in params] + ["%s__2" % p for p in params],
        constants=consts)
    forward = _split_exprs(section["forward"], binding)
    inverse = _split_exprs(section["inverse"], binding)
    template = Diffeo(coords, forward, inverse)
    product = _split_exprs(section["product"], slot_binding)
    param_inverse = _split_exprs(section["param_inverse"], binding)
    param_identity = _split_exprs(section["param_identity"], VarBinding())
    group = ParamGroup(params, product, param_inverse, param_identity)
    vol = section.get("volume_preserving", "").strip().lower() in ("yes", "true", "1")
    return ActionSpec(section.get("name", "custom action"), group, coords,
                      template=template, volume_preserving=vol or None,
                      binding=binding)
