"""Structural analysis of conjunctive queries.

Covers hypergraph acyclicity (ear removal with a deterministic tie-break),
free-connexity, endomorphism search, minimisation and cores, endomorphism
images, the untangling rewrite and its witness search, mirror decompositions,
a transfer condition for conditional hardness, the verdicts settled for
single patterns, and the per-query verdict table.  Everything here is a pure
function of immutable inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from . import fixtures
from .qmodel import (
    Atom,
    LimitExceededError,
    Query,
    RelationSymbol,
    make_query,
    serialize_query,
)

DEFAULT_UNTANGLE_BUDGET = 4000
MAX_HOM_RESULTS = 200_000
_HOM_CAP_EXCEEDED = "endomorphism enumeration exceeded result cap"


class NotAcyclicError(Exception):
    pass


# -- join trees and acyclicity ----------------------------------------------


class JoinTree(NamedTuple):
    """A forest over the query's atoms satisfying running intersection."""

    nodes: tuple  # tuple[Atom, ...]
    parent: dict  # Atom -> Atom | None

    @property
    def roots(self) -> list:
        return [a for a in self.nodes if self.parent[a] is None]

    def rerooted(self, atom: Atom) -> "JoinTree":
        """The same forest with ``atom`` as the root of its tree.

        Only the edges on the path from ``atom`` to its old root change
        direction, so the undirected forest, and with it running
        intersection, stays as it was.
        """
        parent = dict(self.parent)
        below, cur = None, atom
        while cur is not None:
            above = self.parent[cur]
            parent[cur] = below
            below, cur = cur, above
        return JoinTree(self.nodes, parent)


def gyo_acyclic(query: Query) -> Optional[JoinTree]:
    """Ear-removal acyclicity test; returns a join forest or None if cyclic.

    Tie-break: among removable atoms, always remove the lexicographically
    least (symbol name, argument list), attaching it to its least witness.
    The result is therefore deterministic.
    """
    remaining = list(query.atoms)  # already sorted
    parent: dict = {}
    while remaining:
        occurrences: dict = {}
        for a in remaining:
            for v in a.var_set:
                occurrences[v] = occurrences.get(v, 0) + 1
        picked = None
        for a in remaining:
            shared = {v for v in a.var_set if occurrences[v] > 1}
            if not shared:
                picked = (a, None)  # isolated: becomes a root
                break
            witness = None
            for w in remaining:
                if w is not a and shared <= w.var_set:
                    witness = w
                    break
            if witness is not None:
                picked = (a, witness)
                break
        if picked is None:
            return None
        a, w = picked
        parent[a] = w
        remaining.remove(a)
    return JoinTree(query.atoms, parent)


def is_acyclic(query: Query) -> bool:
    return gyo_acyclic(query) is not None


# -- homomorphism / endomorphism search --------------------------------------


def join_variable_order(atoms, first=()) -> list:
    """Variable order of the generic join and the homomorphism search, fixed
    by the atoms' text.

    Greedy: next is the variable in most atoms that touch an already ordered
    variable, then in most atoms, then the first to appear.  The variables
    of ``first`` come before the others.
    """
    holding: dict = {}  # variable -> atoms holding it, by first appearance
    for k, a in enumerate(atoms):
        for v in a.args:
            holding.setdefault(v, set()).add(k)
    var_sets = [a.var_set for a in atoms]
    touching = dict.fromkeys(holding, 0)  # atoms holding it that touch the order
    touched: set = set()
    order: list = []
    for remaining in ([v for v in holding if v in first],
                      [v for v in holding if v not in first]):
        while remaining:
            # max keeps the first of equal keys, the earliest to appear
            best = max(remaining, key=lambda v: (touching[v], len(holding[v])))
            order.append(best)
            remaining.remove(best)
            for k in holding[best] - touched:
                touched.add(k)
                for v in var_sets[k]:
                    touching[v] += 1
    return order


def find_maps(
    src_atoms,
    dst_atoms,
    pinned: Optional[dict] = None,
    injective: bool = False,
) -> Iterator[dict]:
    """Yield all variable maps sending every src atom onto some dst atom.

    Deterministic order: variables are bound in ``join_variable_order`` with
    the pinned ones first, candidate targets in sorted order.
    """
    dst_by_sym: dict = {}
    for a in dst_atoms:
        dst_by_sym.setdefault((a.symbol.name, a.symbol.arity), []).append(a.args)
    src_vars = {v for a in src_atoms for v in a.args}

    pinned = pinned or {}
    order = [v for v in join_variable_order(src_atoms, pinned) if v not in pinned]
    atoms_by_var: dict = {v: [] for v in src_vars}
    for a in src_atoms:
        opts = dst_by_sym.get((a.symbol.name, a.symbol.arity))
        if not opts:
            return  # some atom has no possible target
        for v in set(a.args):
            atoms_by_var[v].append((a, opts))

    mapping = dict(pinned)
    used = set(pinned.values()) if injective else None
    if injective and len(set(pinned.values())) != len(pinned):
        return

    # the pinned variables alone must leave every atom a target
    if not all(any(all(mapping.get(sv, tv) == tv for sv, tv in zip(a.args, args))
                   for args in dst_by_sym[(a.symbol.name, a.symbol.arity)])
               for a in src_atoms):
        return

    def targets(v: str) -> list:
        """The values for ``v`` under which every atom holding it keeps a
        consistent target, sorted."""
        allowed = None
        for a, opts in atoms_by_var[v]:
            at = a.args.index(v)
            fits = set()
            for args in opts:
                t = args[at]
                for sv, tv in zip(a.args, args):
                    if (t if sv == v else mapping.get(sv, tv)) != tv:
                        break
                else:
                    fits.add(t)
            allowed = fits if allowed is None else allowed & fits
        return sorted(allowed)

    def backtrack(i: int) -> Iterator[dict]:
        if i == len(order):
            yield dict(mapping)
            return
        v = order[i]
        for t in targets(v):
            if injective and t in used:
                continue
            mapping[v] = t
            if injective:
                used.add(t)
            yield from backtrack(i + 1)
            if injective:
                used.discard(t)
            del mapping[v]

    yield from backtrack(0)


def endomorphisms(query: Query) -> Iterator[dict]:
    """All atom-preserving variable self-maps, the identity included, one at
    a time; raises LimitExceededError on the first one beyond
    MAX_HOM_RESULTS."""
    for count, m in enumerate(find_maps(query.atoms, query.atoms), 1):
        if count > MAX_HOM_RESULTS:
            raise LimitExceededError(_HOM_CAP_EXCEEDED)
        yield m


def _is_injective(mapping: dict) -> bool:
    return len(set(mapping.values())) == len(mapping)


def _folding_endomorphism(query: Query) -> Optional[dict]:
    """First non-injective endomorphism fixing the free variables, if any."""
    for m in find_maps(query.atoms, query.atoms,
                       pinned={v: v for v in query.free_vars}):
        if not _is_injective(m):
            return m
    return None


def minimal_form_with_retraction(query: Query):
    """Equivalent minimal retract plus the composed variable retraction.  The
    search stops at a full query: its only endomorphism is the identity."""
    current = query
    retraction = {v: v for v in query.all_vars}
    while not current.is_full and (found := _folding_endomorphism(current)) is not None:
        current = make_query(tuple(a.rename(found) for a in current.atoms),
                             current.free_vars)
        retraction = {v: found[t] for v, t in retraction.items()}
    return current, retraction


def minimal_form(query: Query) -> Query:
    return minimal_form_with_retraction(query)[0]


def core_with_retraction(query: Query):
    """Core = minimal form of the Boolean closure, with its retraction."""
    return minimal_form_with_retraction(make_query(query.atoms, ()))


def core(query: Query) -> Query:
    return core_with_retraction(query)[0]


# -- the same query up to renaming -------------------------------------------


def canonical_key(query: Query) -> tuple:
    """Colour refinement's stable signatures, found without search.

    A variable's signature is its colour and, per occurrence, the symbol, the
    position and the argument colours.  The key holds every signature, the
    nullary atoms and the free variables' colours.  Isomorphic queries (free
    variables compared as a set) get equal keys; queries that are not may
    share one, so ``isomorphism`` decides.
    """
    free = set(query.free_vars)
    colors = {v: int(v in free) for v in query.all_vars}
    occurrences: dict = {v: [] for v in colors}
    for a in query.atoms:
        for i, v in enumerate(a.args):
            occurrences[v].append((a.symbol.name, i, a.args))
    sigs: dict = {}
    for _ in range(len(colors) + 1):
        sigs = {v: (colors[v], tuple(sorted((name, i, tuple(colors[x] for x in args))
                                             for name, i, args in occ)))
                for v, occ in occurrences.items()}
        ranked = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new = {v: ranked[sigs[v]] for v in colors}
        if new == colors:
            break
        colors = new
    return (tuple(sorted(sigs.values())),
            tuple(a.symbol.name for a in query.atoms if not a.args),
            tuple(sorted(colors[v] for v in free)))


def isomorphism(src: Query, dst: Query) -> Optional[dict]:
    """The first injective ``find_maps`` map from ``src``'s atoms onto
    ``dst``'s that sends the free variables onto the free variables; None
    when the queries are not the same up to renaming."""
    if (len(src.atoms), len(src.all_vars)) != (len(dst.atoms), len(dst.all_vars)):
        return None
    free = set(dst.free_vars)
    for m in find_maps(src.atoms, dst.atoms, injective=True):
        if {m[v] for v in src.free_vars} == free:
            return m
    return None


# -- images ------------------------------------------------------------------


class Image:
    """Subquery induced by the range atoms of an endomorphism of ``source``,
    with the first endomorphism found that reaches them.  Images compare and
    hash by ``atoms`` and ``query`` only."""

    def __init__(self, atoms: frozenset, query: Query, endo: dict, source: Query):
        self.atoms, self.query, self.endo, self.source = atoms, query, endo, source

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.atoms, self.query) == (other.atoms, other.query)

    def __hash__(self) -> int:
        return hash((self.atoms, self.query))

    @cached_property
    def rewrite(self) -> Untangled:
        """``source`` untangled at this image, worked out on first use."""
        return untangle(self.source, self.atoms)

    def __repr__(self) -> str:
        return f"Image({serialize_query(self.query)})"


def _induced_subquery(atoms: Iterable[Atom]) -> Query:
    atoms = tuple(sorted(atoms))
    vs = sorted({v for a in atoms for v in a.args})
    return make_query(atoms, tuple(vs))


def images(query: Query) -> list:
    """All distinct endomorphism ranges of a full query, as subqueries.

    Contains the query itself (identity) and its full-core.  Distinctness is
    by atom set; each image keeps the first endomorphism reaching it and the
    query as its source.
    """
    if not query.is_full:
        raise ValueError("images are defined for full queries")
    # every endomorphism sends each atom onto an atom of the query; a range
    # is kept as the (name, arguments) pairs of its atoms until the end
    shapes = [(a.symbol.name, a.args) for a in query.atoms]
    endo_of: dict = {}
    for m in endomorphisms(query):
        key = frozenset([(name, tuple([m[v] for v in args])) for name, args in shapes])
        endo_of.setdefault(key, m)
    atom_of = {(a.symbol.name, a.args): a for a in query.atoms}
    ranges = {frozenset(atom_of[k] for k in key): m for key, m in endo_of.items()}
    return [Image(ran, _induced_subquery(ran), ranges[ran], query)
            for ran in sorted(ranges, key=lambda r: tuple(sorted(r)))]


# -- untangling --------------------------------------------------------------


class UntangledGroup(NamedTuple):
    """Removed-side atoms that share one filtered copy of their symbol."""

    source: str        # symbol of the atoms
    positions: tuple   # dropped positions, those holding image variables
    image_vars: tuple  # the image variables at those positions
    symbol: str        # paper symbol, one per (source, positions)
    relation: str      # symbol, or a fresh <symbol>_f<n> for the n-th later group
    kept: tuple        # argument tuples of the atoms without those positions


class Untangled(NamedTuple):
    """One untangling step: the query without the image's atoms.

    ``result`` holds the remaining atoms over paper symbols; ``rest`` holds
    them over per-group relations, so groups that filter one symbol at
    different image variables read separate relations at enumeration time.
    """

    groups: tuple  # tuple[UntangledGroup, ...], in order of first atom
    result: Query
    rest: Query


def untangle(query: Query, image_atoms: frozenset) -> Untangled:
    """Drop the image's atoms; project the image variables out of the rest.

    Positions holding image variables are removed and the symbol is renamed
    per (original symbol, dropped positions).  Both queries are full over the
    surviving variables, and empty when the image is the whole query.
    """
    image_atoms = frozenset(image_atoms)
    p_atoms = [a for a in query.atoms if a not in image_atoms]
    image_vars = {v for a in image_atoms for v in a.args}
    shared = image_vars & {v for a in p_atoms for v in a.args}
    kept_names = {a.symbol.name for a in p_atoms if not shared & a.var_set}
    names: dict = {}
    kept_by_group: dict = {}
    for a in p_atoms:
        positions = tuple(i for i, v in enumerate(a.args) if v in shared)
        name = a.symbol.name
        if positions:
            name = names.get((name, positions))
            if name is None:
                name = f"{a.symbol.name}__{''.join(str(i) for i in positions)}"
                # A rewritten symbol must not capture a name that survives
                # unrewritten (possible once a query is untangled twice).
                while name in kept_names or name in names.values():
                    name += "x"
                names[(a.symbol.name, positions)] = name
        key = (a.symbol.name, positions, tuple(a.args[i] for i in positions), name)
        kept = tuple(v for i, v in enumerate(a.args) if i not in positions)
        kept_by_group.setdefault(key, []).append(kept)
    taken = Counter()
    groups = []
    for (source, positions, at, name), kept in kept_by_group.items():
        n = taken[name]
        taken[name] += 1
        relation = name if n == 0 else f"{name}_f{n}"
        while n and (relation in kept_names or relation in names.values()):
            relation += "x"  # the same freshness as a paper symbol's
        groups.append(UntangledGroup(source, positions, at, name, relation, tuple(kept)))

    def over(field: str) -> Query:
        atoms = [Atom(RelationSymbol(getattr(g, field), len(args)), args)
                 for g in groups for args in g.kept]
        return make_query(atoms, sorted({v for a in atoms for v in a.args}))

    return Untangled(tuple(groups), over("symbol"), over("relation"))


class UntanglingWitness(NamedTuple):
    """Chain q0..ql with q0 acyclic; ``steps[k]`` is an image of q(k+1)
    whose query is qk and whose untangling is acyclic."""

    base: Query
    steps: tuple  # tuple[Image, ...]

    @property
    def chain(self) -> tuple:
        return (self.base, *(img.source for img in self.steps))


def _certified(image: Image) -> bool:
    """The image's atoms are atoms of its source, its endomorphism renames
    the source's atoms onto exactly them, and its query is the subquery they
    induce.  Linear in the source; no search."""
    source = image.source
    return (image.atoms <= set(source.atoms)
            and frozenset(a.rename(image.endo) for a in source.atoms) == image.atoms
            and image.query == _induced_subquery(image.atoms))


def _is_untangling_step(image: Image) -> bool:
    """An untangling chain may step from the image's source down to the
    image itself: the source untangled at the image is acyclic."""
    return is_acyclic(image.rewrite.result)


def validate_untangling_witness(query: Query, witness: UntanglingWitness) -> bool:
    """Check the chain against the maps it carries; no search.  Every step's
    image is certified, is the previous element and is an untangling step."""
    chain = witness.chain
    if chain[-1] != query or not is_acyclic(witness.base):
        return False
    return all(_certified(image) and image.query == prev and _is_untangling_step(image)
               for prev, image in zip(chain, witness.steps))


def is_untangleable(query: Query, budget: int = DEFAULT_UNTANGLE_BUDGET,
                    imgs: Optional[list] = None):
    """Search for an untangling chain.

    Returns ("yes", witness) with a re-validating witness, ("no", None) when
    the progressing-step search is exhausted, or ("unknown", None) when the
    node budget ran out.  Steps must shrink the query (trivial images are
    excluded), which bounds the depth; memoisation up to renaming prunes
    repeats.  ``imgs``, when given, are the query's images, already computed.
    """
    if not query.is_full:
        raise ValueError("untangling is defined for full queries")
    remaining = [budget]
    memo: dict = {}  # canonical key -> [(query, None or BUDGET)]
    BUDGET = "budget"

    def visit(q: Query):
        # memoised up to renaming; steps shrink, so the input never recurs
        if is_acyclic(q):
            return UntanglingWitness(q, ())
        seen = memo.setdefault(canonical_key(q), [])
        for other, out in seen:
            if isomorphism(other, q) is not None:
                return out
        out = expand(q)
        if out is BUDGET or out is None:
            seen.append((q, out))
        return out

    def expand(q: Query, q_images: Optional[list] = None):
        if remaining[0] <= 0:
            return BUDGET
        remaining[0] -= 1
        hit_budget = False
        for img in images(q) if q_images is None else q_images:
            if img.atoms == set(q.atoms) or not _is_untangling_step(img):
                continue  # a trivial image makes no progress
            sub = visit(img.query)
            if isinstance(sub, UntanglingWitness):
                return UntanglingWitness(sub.base, sub.steps + (img,))
            if sub is BUDGET:
                hit_budget = True
        return BUDGET if hit_budget else None

    out = UntanglingWitness(query, ()) if is_acyclic(query) else expand(query, imgs)
    if isinstance(out, UntanglingWitness):
        assert validate_untangling_witness(query, out)
        return "yes", out
    if out is BUDGET:
        return "unknown", None
    return "no", None


# -- mirrors -----------------------------------------------------------------


class MirrorWitness(NamedTuple):
    """Acyclic image plus a shared-fixing isomorphism from the rest onto it."""

    image: Image
    iso: dict  # remaining-atom variables -> image variables, identity on shared


def validate_mirror_witness(query: Query, witness: MirrorWitness) -> bool:
    image, iso = witness.image, witness.iso
    if image.source != query or not _certified(image) or not is_acyclic(image.query):
        return False
    rest = [a for a in query.atoms if a not in image.atoms]
    if not rest or len(rest) != len(image.atoms):
        return False
    rest_vars = {v for a in rest for v in a.args}
    if set(iso) != rest_vars or not _is_injective(iso):
        return False
    if any(iso[v] != v for v in rest_vars.intersection(image.query.all_vars)):
        return False
    return frozenset(a.rename(iso) for a in rest) == image.atoms


def is_mirror(query: Query, imgs: Optional[list] = None) -> Optional[MirrorWitness]:
    """First acyclic image whose complement is isomorphic to it, fixing the
    shared variables; None when no decomposition exists.  ``imgs``, when
    given, are the query's images, already computed."""
    if not query.is_full:
        raise ValueError("mirror detection is defined for full queries")
    for img in images(query) if imgs is None else imgs:
        rest = [a for a in query.atoms if a not in img.atoms]
        if not rest or len(rest) != len(img.atoms):
            continue
        if not is_acyclic(img.query):
            continue
        image_vars = {v for a in img.atoms for v in a.args}
        rest_vars = {v for a in rest for v in a.args}
        if len(rest_vars) != len(image_vars):
            continue
        pinned = {v: v for v in rest_vars & image_vars}
        for iso in find_maps(tuple(rest), tuple(sorted(img.atoms)),
                             pinned=pinned, injective=True):
            witness = MirrorWitness(img, iso)
            if validate_mirror_witness(query, witness):
                return witness
    return None


# -- hardness transfer --------------------------------------------------------


def hardness_transfer(query: Query, imgs: Optional[list] = None):
    """Image whose untangling has a cyclic core while every image of the query
    contains none or all of the result's variables; None otherwise.  ``imgs``,
    when given, are the query's images, already computed."""
    if not query.is_full:
        raise ValueError("hardness transfer is defined for full queries")
    imgs = images(query) if imgs is None else imgs
    for img in imgs:
        result = img.rewrite.result
        if not result.atoms:
            continue
        rvars = set(result.all_vars)
        ok = True
        for other in imgs:
            ovars = {v for a in other.atoms for v in a.args}
            inter = ovars & rvars
            if inter and inter != rvars:
                ok = False
                break
        if not ok:
            continue
        if not is_acyclic(core(result)):
            return img, result
    return None


def has_nested_images(imgs: list) -> bool:
    """Every pair of the given images comparable by atom-set containment."""
    for a, b in itertools.combinations([img.atoms for img in imgs], 2):
        if not (a <= b or b <= a):
            return False
    return True


# -- per-query analysis -------------------------------------------------------


# lower case, so no parsed relation name can take it
_FRESH_HEAD = "head"


class Analysis:
    """The structural facts and verdicts of a query's minimal form.

    ``query`` is the input as given; ``analyzed`` is its minimal form, which
    the facts, the verdicts and every engine are about.  It has the input's
    answers in its head order, as the retraction fixes the free variables.
    Every fact is computed on first use and kept on the object.  Images and
    the mirror, untangling and hardness witnesses are defined for full
    queries; other queries get no images, no witnesses and the untangling
    status "n/a".  When the endomorphisms exceed MAX_HOM_RESULTS, ``images``
    is None, there are no witnesses and the untangling status is
    NOT_COMPUTED.
    """

    def __init__(self, query: Query, untangle_budget: int = DEFAULT_UNTANGLE_BUDGET):
        self.query = query
        self.analyzed = minimal_form(query)
        self.untangle_budget = untangle_budget

    @property
    def minimized(self) -> bool:
        return self.analyzed != self.query

    @cached_property
    def acyclic(self) -> bool:
        return is_acyclic(self.analyzed)

    @cached_property
    def free_connex(self) -> bool:
        q = self.analyzed
        head = Atom(RelationSymbol(_FRESH_HEAD, len(q.free_vars)), tuple(q.free_vars))
        return self.acyclic and is_acyclic(make_query(q.atoms + (head,), q.free_vars))

    @cached_property
    def core(self) -> Query:
        return core(self.analyzed)

    @cached_property
    def core_acyclic(self) -> bool:
        return is_acyclic(self.core)

    @cached_property
    def full_core(self) -> Optional[Query]:
        if not self.analyzed.is_full:
            return None
        return make_query(self.core.atoms, self.core.all_vars)

    @cached_property
    def images(self) -> Optional[list]:
        if not self.analyzed.is_full:
            return []
        try:
            return images(self.analyzed)
        except LimitExceededError:
            return None

    @property
    def images_computed(self) -> bool:
        return self.images is not None

    @cached_property
    def mirror(self) -> Optional[MirrorWitness]:
        # a full query has at least one image, the query itself
        return is_mirror(self.analyzed, self.images) if self.images else None

    @cached_property
    def untangling(self) -> tuple:
        """(status, witness), the status being yes, no, unknown, n/a or
        NOT_COMPUTED."""
        if not self.analyzed.is_full:
            return "n/a", None
        if not self.images_computed:
            return NOT_COMPUTED, None
        return is_untangleable(self.analyzed, self.untangle_budget, self.images)

    @property
    def untangleable(self) -> str:
        return self.untangling[0]

    @cached_property
    def hardness_witness(self) -> Optional[tuple]:
        if not self.images or self.untangleable == "yes":
            return None
        return hardness_transfer(self.analyzed, self.images)

    @cached_property
    def registry_entry(self) -> Optional[dict]:
        """Individually settled verdicts of the registered fixture that is
        this query up to renaming, if any, with ``iso``, the isomorphism from
        the fixture onto ``analyzed``."""
        for entry in classification_registry().get(canonical_key(self.analyzed), ()):
            iso = isomorphism(fixtures.fixture(entry["name"]), self.analyzed)
            if iso is not None:
                return {**entry, "iso": iso}
        return None

    @property
    def fixture_name(self) -> Optional[str]:
        return self.registry_entry["name"] if self.registry_entry else None


    @cached_property
    def verdicts(self) -> list:
        """The four verdicts, each fixed by the first rule that applies."""
        q = self.analyzed
        verdicts: dict = {}

        def put(problem: str, verdict: str, assumption: str, citation: str) -> None:
            if problem not in verdicts:
                verdicts[problem] = Verdict(problem, verdict, assumption, citation)

        # (1) cyclic core: not even one solution in linear time.
        if not self.core_acyclic:
            for problem in PROBLEMS:
                put(problem, V_COND_HARD, "sHyperclique", "Thm 3.5")

        # (2) Boolean/unary minimal: linear-time evaluation iff acyclic.  An
        # acyclic such query is free-connex, so (4) gives its delay verdicts.
        if q.is_boolean or q.arity == 1:
            if self.acyclic:
                put(PROBLEM_EVAL, V_LINEAR_TIME, "none", "Thm 3.2")
                put(PROBLEM_FIRST, V_LINEAR_TIME, "none", "Thm 3.2")
            else:
                put(PROBLEM_EVAL, V_COND_HARD, "sHyperclique", "Thm 3.2")

        # (3) binary minimal: constant delay iff acyclic free-connex; (4)
        # gives the free-connex side.
        if q.arity == 2 and not self.free_connex:
            put(PROBLEM_CONST, V_COND_HARD, "BMM+Hyperclique", "Thm 3.4")

        # (4) acyclic free-connex: constant delay.
        if self.free_connex:
            put(PROBLEM_CONST, V_CONSTANT, "none", "Thm 2.2")
        if self.acyclic:
            put(PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "Thm 2.2")
            put(PROBLEM_FIRST, V_LINEAR_TIME, "none", "Thm 2.2")
            if self.free_connex:
                put(PROBLEM_EVAL, V_LINEAR_IO, "none", "Thm 2.2")

        # (5)-(8) rest on the images.  Once (1)-(4) settle all four problems
        # they change no verdict, so a query with more endomorphisms than
        # MAX_HOM_RESULTS keeps the verdicts above and goes without them.
        if len(verdicts) < 4 and not self.images_computed:
            raise LimitExceededError(_HOM_CAP_EXCEEDED)

        # (5) mirrors: constant delay.
        if self.mirror is not None:
            put(PROBLEM_CONST, V_CONSTANT, "none", "Prop 5.2")

        # Registry entries settled individually (bespoke algorithms, encodings)
        # land between the general upper-bound rules and the untangling rules.
        if self.registry_entry:
            for problem, verdict, assumption, citation in self.registry_entry.get("verdicts", []):
                put(problem, verdict, assumption, citation)

        # (6) untangleable full queries: linear delay.
        if self.untangleable == "yes":
            put(PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "Prop 4.3")
            put(PROBLEM_FIRST, V_LINEAR_TIME, "none", "Prop 4.3")

        # (7) nested images without untangling: conditionally hard.
        if self.untangleable == "no" and has_nested_images(self.images):
            put(PROBLEM_LINEAR, V_COND_HARD, "sHyperclique", "Thm 4.8")

        # (8) hardness transfer witness.
        if self.hardness_witness is not None:
            put(PROBLEM_LINEAR, V_COND_HARD, "sHyperclique", "Prop 4.7")

        # Derived fills: constant delay implies linear delay implies first solution.
        got_const = verdicts.get(PROBLEM_CONST)
        if got_const and got_const.verdict == V_CONSTANT:
            put(PROBLEM_LINEAR, V_LINEAR_DELAY, got_const.assumption, got_const.citation)
            put(PROBLEM_EVAL, V_LINEAR_IO, got_const.assumption, got_const.citation)
        got_lin = verdicts.get(PROBLEM_LINEAR)
        if got_lin and got_lin.verdict == V_LINEAR_DELAY:
            put(PROBLEM_FIRST, V_LINEAR_TIME, got_lin.assumption, got_lin.citation)
        if self.core_acyclic and q.is_full:
            put(PROBLEM_FIRST, V_LINEAR_TIME, "none", "Thm 2.2")

        # (10) everything else stays open.
        for problem in PROBLEMS:
            put(problem, V_UNKNOWN, "none", "open")

        return [verdicts[p] for p in PROBLEMS]

    def to_json(self) -> dict:
        return {
            "query": serialize_query(self.query),
            "minimized": self.minimized,
            "analyzed_query": serialize_query(self.analyzed),
            "is_full": self.analyzed.is_full,
            "is_boolean": self.analyzed.is_boolean,
            "is_unary": self.analyzed.arity == 1,
            "is_binary": self.analyzed.arity == 2,
            "acyclic": self.acyclic,
            "free_connex": self.free_connex,
            "minimal": True,  # a minimal form is minimal by construction
            "core": serialize_query(self.core),
            "core_acyclic": self.core_acyclic,
            "full_core": serialize_query(self.full_core) if self.full_core else None,
            "images": ([serialize_query(i.query) for i in self.images]
                       if self.images_computed else NOT_COMPUTED),
            "mirror": (
                NOT_COMPUTED if not self.images_computed else
                {"image": serialize_query(self.mirror.image.query),
                 "iso": dict(sorted(self.mirror.iso.items()))}
                if self.mirror else None
            ),
            "untangleable": self.untangleable,
            "fixture": self.fixture_name,
            "verdicts": [v._asdict() for v in self.verdicts],
        }


# -- classification -----------------------------------------------------------

PROBLEM_FIRST = "first-solution"
PROBLEM_EVAL = "evaluation"
PROBLEM_CONST = "enumeration-constant-delay"
PROBLEM_LINEAR = "enumeration-linear-delay"
PROBLEMS = (PROBLEM_FIRST, PROBLEM_EVAL, PROBLEM_CONST, PROBLEM_LINEAR)

V_LINEAR_TIME = "linear-time"
V_LINEAR_IO = "linear-input-output"
V_CONSTANT = "constant-delay"
V_LINEAR_DELAY = "linear-delay"
V_COND_HARD = "conditionally-hard"
V_UNKNOWN = "unknown"

NOT_COMPUTED = "not computed"

# Verdicts settled for single patterns (bespoke algorithms, gadget
# encodings), by fixture.  The open problems are listed with none, so that
# classification can still label the fixture; the generic rules leave them
# unknown.
_SETTLED = {
    "diamond_red": [
        (PROBLEM_CONST, V_COND_HARD, "sHyperclique", "triangle-mirrorfig1 encoding"),
    ],
    "ring8": [
        (PROBLEM_CONST, V_COND_HARD, "sHyperclique", "triangle-spike-q1 encoding"),
    ],
    "ring8_io": [
        (PROBLEM_CONST, V_CONSTANT, "none", "bespoke SPIKE_Q2"),
    ],
    "ring8_spikes": [
        (PROBLEM_CONST, V_CONSTANT, "none", "bespoke SPIKE_Q3"),
    ],
    "ring8_spikes_flip": [
        (PROBLEM_CONST, V_COND_HARD, "UTD", "utd-spike-q4 encoding"),
    ],
    "double_kite": [
        (PROBLEM_LINEAR, V_COND_HARD, "sHyperclique", "Ex 4.7 encoding"),
    ],
    "twin_loops": [
        (PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "bespoke TWO_LOOPS"),
    ],
    "twin_triangles": [
        (PROBLEM_LINEAR, V_LINEAR_DELAY, "none", "bespoke TWO_TRIANGLES"),
    ],
    "square_loops": [],
    "cycle20": [],
    "windmill": [],
    "windmill_tail": [],
    "bowtie_chain": [],
}


@lru_cache(maxsize=None)
def classification_registry() -> dict:
    """Canonical key -> the settled verdicts and fixture label of every
    registered fixture with that key."""
    registry = {}
    for name, verdicts in _SETTLED.items():
        registry.setdefault(canonical_key(fixtures.fixture(name)), []).append(
            {"name": name, "verdicts": verdicts})
    return registry


class Verdict(NamedTuple):
    problem: str
    verdict: str
    assumption: str
    citation: str


def classify(query: Query, untangle_budget: int = DEFAULT_UNTANGLE_BUDGET) -> Analysis:
    """Structural facts plus the verdict table, in priority order.

    Non-minimal inputs are minimised first and the verdicts apply to the
    minimal form.  The table is built here, so a query whose verdicts need
    more than MAX_HOM_RESULTS endomorphisms raises before any output.
    """
    analysis = Analysis(query, untangle_budget)
    analysis.verdicts
    return analysis
