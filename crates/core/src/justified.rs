//! Justified operations (Definition 3, Proposition 1).
//!
//! Candidate generation follows Proposition 1 — justified deletions remove
//! non-empty subsets of a violation's body image `h(ϕ)`; justified
//! insertions add `h′(ψ) − D′` for extensions `h′` of a TGD violation's
//! homomorphism over the base domain — and every candidate is then verified
//! *literally* against Definition 3, so corner cases (e.g. a proper subset
//! of an insertion satisfying the head through a different extension) are
//! handled exactly as the paper defines them.

use crate::{BaseDomain, FactSet, Operation, PatchSource};
use ocqa_data::{Database, Fact};
use ocqa_logic::{hom, Constraint, ConstraintSet, FactSource, Violation, ViolationSet};
use std::collections::BTreeSet;

/// The most atoms a constraint's body or TGD head may have for its
/// justified operations to be enumerable: deletion candidates range over
/// the non-empty subsets of a violation's body image, and insertion
/// candidates are checked against every proper subset of a head image.
pub const MAX_ENUMERABLE_ATOMS: usize = 16;

/// The first constraint of `sigma` whose body or head has more than
/// [`MAX_ENUMERABLE_ATOMS`] atoms — no repairing walk can enumerate its
/// operations — as `(index, atoms)`.
pub fn unenumerable_constraint(sigma: &ConstraintSet) -> Option<(usize, usize)> {
    sigma.constraints().iter().enumerate().find_map(|(i, c)| {
        let head = match c {
            Constraint::Tgd { head, .. } => head.len(),
            _ => 0,
        };
        let atoms = c.body().len().max(head);
        (atoms > MAX_ENUMERABLE_ATOMS).then_some((i, atoms))
    })
}

/// Generates every justified operation for the current instance `db` whose
/// violations are `violations` (Proposition 1 shapes, each verified against
/// Definition 3). Returned in canonical order, deduplicated.
pub fn justified_operations(
    sigma: &ConstraintSet,
    base: &BaseDomain,
    db: &Database,
    violations: &ViolationSet,
) -> Vec<Operation> {
    let mut out: BTreeSet<Operation> = BTreeSet::new();
    for v in violations.iter() {
        deletion_candidates_for(sigma, db, v, &mut out);
        insertion_candidates_for(sigma, base, db, v, &mut out);
    }
    debug_assert!(
        out.iter().all(|op| is_justified(op, sigma, db, violations)),
        "generated a candidate that fails the literal Definition 3 check"
    );
    out.into_iter().collect()
}

/// Justified deletions fixing violation `v`: all non-empty subsets of the
/// body image `h(ϕ)` (removing any of its facts destroys the witnessing
/// homomorphism, so the subset-minimality condition of Definition 3 holds
/// for free — see `is_delete_justified` for the literal check).
fn deletion_candidates_for(
    sigma: &ConstraintSet,
    db: &Database,
    v: &Violation,
    out: &mut BTreeSet<Operation>,
) {
    let image: Vec<Fact> = v
        .body_image(sigma)
        .into_iter()
        .filter(|f| db.contains(f))
        .collect();
    let n = image.len();
    if n == 0 {
        return;
    }
    assert!(
        n <= MAX_ENUMERABLE_ATOMS,
        "violation body image too large to enumerate subsets"
    );
    for mask in 1u32..(1 << n) {
        let subset: Vec<Fact> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| image[i].clone())
            .collect();
        out.insert(Operation::delete(subset));
    }
}

/// Justified insertions fixing violation `v` (TGDs only): for each
/// extension `h′` of `h` mapping the existential variables into the base
/// domain, the candidate is `F = h′(ψ) − D′`; it must then pass the
/// Definition 3 subset condition (no proper subset may already satisfy the
/// head).
fn insertion_candidates_for(
    sigma: &ConstraintSet,
    base: &BaseDomain,
    db: &Database,
    v: &Violation,
    out: &mut BTreeSet<Operation>,
) {
    let kappa = sigma.get(v.constraint as usize);
    let Constraint::Tgd {
        exist_vars, head, ..
    } = kappa
    else {
        return; // EGD and DC violations cannot be fixed by additions.
    };
    base.for_each_tuple(exist_vars.len(), &mut |assignment| {
        let mut h = v.hom.clone();
        for (z, c) in exist_vars.iter().zip(assignment.iter()) {
            if !h.bind(*z, *c) {
                return true; // clash with a body binding of the same name
            }
        }
        let mut missing: Vec<Fact> = Vec::new();
        for atom in head {
            let fact = atom.apply(&h).expect("head variables bound");
            if !db.contains(&fact) && !missing.contains(&fact) {
                missing.push(fact);
            }
        }
        if !missing.is_empty() {
            let fs = FactSet::new(missing);
            if insertion_subset_condition(kappa, v, &fs, db) {
                out.insert(Operation::Insert(fs));
            }
        }
        true
    });
}

/// Definition 3, condition 1: for every non-empty `G ⊊ F`, the violation
/// must persist in `+G(D′)` — i.e. adding any proper subset must *not*
/// satisfy the TGD head (through any extension).
fn insertion_subset_condition(
    kappa: &Constraint,
    v: &Violation,
    fs: &FactSet,
    db: &Database,
) -> bool {
    let Constraint::Tgd { head, .. } = kappa else {
        return false;
    };
    fs.proper_subsets().into_iter().all(|g| {
        let patched = PatchSource::with(db, g, []);
        !hom::exists_hom(head, &patched, &v.hom)
    })
}

/// The literal Definition 3 check: `op` is `(db, Σ)`-justified iff some
/// violation `(κ, h)` of `db` is eliminated by `op` and the subset
/// conditions hold for every non-empty `G ⊊ F`.
pub fn is_justified(
    op: &Operation,
    sigma: &ConstraintSet,
    db: &Database,
    violations: &ViolationSet,
) -> bool {
    violations.iter().any(|v| justifies(op, sigma, db, v))
}

/// Whether violation `v` justifies `op` per Definition 3.
pub fn justifies(op: &Operation, sigma: &ConstraintSet, db: &Database, v: &Violation) -> bool {
    let after = PatchSource::apply(db, op);
    // (κ, h) ∈ V(D′) − V(op(D′)).
    if !v.holds_in(sigma, &PatchSource::identity(db)) || v.holds_in(sigma, &after) {
        return false;
    }
    match op {
        Operation::Insert(fs) => {
            // Condition 1: every proper subset leaves the violation intact.
            fs.proper_subsets().into_iter().all(|g| {
                let patched = PatchSource::with(db, g, []);
                v.holds_in(sigma, &patched)
            })
        }
        Operation::Delete(fs) => {
            // Condition 2: every proper subset already eliminates it.
            fs.proper_subsets().into_iter().all(|g| {
                let patched = PatchSource::with(db, [], g);
                !v.holds_in(sigma, &patched)
            })
        }
    }
}

/// Whether the *insertion* `+F` is justified with respect to the instance
/// presented by `source` (used for the global-justification re-checks of
/// Definition 4, condition 3, where `source` is `D^s_{i−1} − H`).
pub fn insert_justified_in<S: FactSource + ?Sized>(
    sigma: &ConstraintSet,
    fs: &FactSet,
    source: &S,
) -> bool {
    let violations = ViolationSet::compute(sigma, source);
    let justified = violations.iter().any(|v| {
        let kappa = sigma.get(v.constraint as usize);
        let Constraint::Tgd { head, .. } = kappa else {
            return false;
        };
        // Eliminated by +F: some extension of h maps the head into source+F…
        let with_f = PatchWrap {
            inner: source,
            add: fs.facts(),
        };
        if !hom::exists_hom(head, &with_f, &v.hom) {
            return false;
        }
        // …and no proper subset of F already satisfies it.
        fs.proper_subsets().into_iter().all(|g| {
            let with_g = PatchWrap {
                inner: source,
                add: &g,
            };
            !hom::exists_hom(head, &with_g, &v.hom)
        })
    });
    justified
}

/// A minimal additive overlay over an arbitrary `FactSource` (PatchSource
/// only wraps concrete databases; the global-justification re-check needs
/// to stack an insertion on top of an already-patched view).
struct PatchWrap<'a, S: FactSource + ?Sized> {
    inner: &'a S,
    add: &'a [Fact],
}

impl<S: FactSource + ?Sized> FactSource for PatchWrap<'_, S> {
    fn arity(&self, pred: ocqa_data::Symbol) -> Option<usize> {
        self.inner.arity(pred)
    }

    fn has_fact(&self, fact: &Fact) -> bool {
        self.inner.has_fact(fact) || self.add.contains(fact)
    }

    fn for_each_match(
        &self,
        pred: ocqa_data::Symbol,
        pattern: &[Option<ocqa_data::Constant>],
        visit: &mut dyn FnMut(&[ocqa_data::Constant]),
    ) {
        self.inner.for_each_match(pred, pattern, visit);
        for f in self.add {
            if f.pred() == pred
                && !self.inner.has_fact(f)
                && f.args()
                    .iter()
                    .zip(pattern.iter())
                    .all(|(c, p)| p.is_none_or(|p| p == *c))
            {
                visit(f.args());
            }
        }
    }

    fn for_each_domain_constant(&self, visit: &mut dyn FnMut(ocqa_data::Constant)) {
        self.inner.for_each_domain_constant(visit);
        for f in self.add {
            for c in f.args() {
                visit(*c);
            }
        }
    }

    fn relation_len(&self, pred: ocqa_data::Symbol) -> usize {
        self.inner.relation_len(pred) + self.add.iter().filter(|f| f.pred() == pred).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;

    /// Example 1: D = {R(a,b), R(a,c), T(a,b)},
    /// Σ = {σ: R(x,y) → ∃z S(x,y,z); η: R(x,y), R(x,z) → y = z}.
    fn example1() -> (Database, ConstraintSet, BaseDomain) {
        let facts = parser::parse_facts("R(a,b). R(a,c). T(a,b).").unwrap();
        let sigma =
            parser::parse_constraints("R(x,y) -> exists z: S(x,y,z). R(x,y), R(x,z) -> y = z.")
                .unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let base = BaseDomain::new(&db, &sigma);
        (db, sigma, base)
    }

    #[test]
    fn example1_justified_operations() {
        let (db, sigma, base) = example1();
        let violations = ViolationSet::compute(&sigma, &db);
        let ops = justified_operations(&sigma, &base, &db, &violations);

        // Deletions named in Example 1 are all justified:
        for del in [
            Operation::delete(vec![Fact::parts("R", &["a", "b"])]),
            Operation::delete(vec![Fact::parts("R", &["a", "c"])]),
            Operation::delete(vec![
                Fact::parts("R", &["a", "b"]),
                Fact::parts("R", &["a", "c"]),
            ]),
        ] {
            assert!(ops.contains(&del), "{del} should be justified");
        }
        // The unjustified deletion from Example 1 — removing T(a,b)
        // alongside R(a,b) — is not generated (T(a,b) contributes to no
        // violation).
        let bad = Operation::delete(vec![
            Fact::parts("R", &["a", "b"]),
            Fact::parts("T", &["a", "b"]),
        ]);
        assert!(!ops.contains(&bad));
        assert!(!is_justified(&bad, &sigma, &db, &violations));

        // Insertions: +S(a,b,z) for every base constant z is justified; the
        // over-wide op_1 = +{S(a,b,c), S(a,a,a)} from Example 1 is not.
        let good_ins = Operation::insert(vec![Fact::parts("S", &["a", "b", "c"])]);
        assert!(ops.contains(&good_ins));
        let op1 = Operation::insert(vec![
            Fact::parts("S", &["a", "b", "c"]),
            Fact::parts("S", &["a", "a", "a"]),
        ]);
        assert!(!ops.contains(&op1));
        assert!(!is_justified(&op1, &sigma, &db, &violations));

        // Every insertion adds a single S fact (single-atom head).
        for op in ops.iter().filter(|o| o.is_insert()) {
            assert_eq!(op.fact_set().len(), 1);
            assert_eq!(op.fact_set().facts()[0].pred().as_str(), "S");
        }
        // 3 constants ⇒ 3 witnesses per violated R-tuple (2 of them): 6
        // insertions; deletions: subsets of {R(a,b)}, {R(a,c)} (from σ) and
        // of {R(a,b),R(a,c)} (from η): 3 distinct sets.
        assert_eq!(ops.iter().filter(|o| o.is_insert()).count(), 6);
        assert_eq!(ops.iter().filter(|o| o.is_delete()).count(), 3);
    }

    #[test]
    fn multi_atom_head_requires_set_insertion() {
        // κ: R(x) → ∃z S(x,z), T(z) — single-atom insertions cannot fix it.
        let facts = parser::parse_facts("R(a).").unwrap();
        let sigma = parser::parse_constraints("R(x) -> exists z: S(x,z), T(z).").unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let base = BaseDomain::new(&db, &sigma);
        let violations = ViolationSet::compute(&sigma, &db);
        let ops = justified_operations(&sigma, &base, &db, &violations);
        let inserts: Vec<&Operation> = ops.iter().filter(|o| o.is_insert()).collect();
        assert_eq!(inserts.len(), 1, "only z↦a is available: {inserts:?}");
        assert_eq!(inserts[0].fact_set().len(), 2, "pair {{S(a,a), T(a)}}");
    }

    #[test]
    fn partial_head_presence_shrinks_insertion() {
        // As above but T(a) already present: F = {S(a,a)} suffices.
        let facts = parser::parse_facts("R(a). T(a).").unwrap();
        let sigma = parser::parse_constraints("R(x) -> exists z: S(x,z), T(z).").unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let base = BaseDomain::new(&db, &sigma);
        let violations = ViolationSet::compute(&sigma, &db);
        let ops = justified_operations(&sigma, &base, &db, &violations);
        assert!(ops.contains(&Operation::insert(vec![Fact::parts("S", &["a", "a"])])));
    }

    #[test]
    fn subset_condition_rejects_padded_insertions() {
        // Head ∃z S(x,z): with S(a,b) missing and two constants, both
        // +S(a,a) and +S(a,b) are justified, but their union is not an
        // operation produced by any single extension — and a hand-built
        // pair fails the Definition 3 check because each singleton subset
        // already satisfies the head.
        let (db, sigma, _) = example1();
        let violations = ViolationSet::compute(&sigma, &db);
        let padded = Operation::insert(vec![
            Fact::parts("S", &["a", "b", "a"]),
            Fact::parts("S", &["a", "b", "b"]),
        ]);
        assert!(!is_justified(&padded, &sigma, &db, &violations));
    }

    #[test]
    fn consistent_database_has_no_justified_ops() {
        let facts = parser::parse_facts("R(a,b). S(a,b,q).").unwrap();
        let sigma =
            parser::parse_constraints("R(x,y) -> exists z: S(x,y,z). R(x,y), R(x,z) -> y = z.")
                .unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let base = BaseDomain::new(&db, &sigma);
        let violations = ViolationSet::compute(&sigma, &db);
        assert!(violations.is_empty());
        assert!(justified_operations(&sigma, &base, &db, &violations).is_empty());
    }

    #[test]
    fn wide_constraints_are_flagged_unenumerable() {
        let wide = |n: usize| {
            let body: Vec<String> = (1..=n).map(|i| format!("R{i}(x)")).collect();
            parser::parse_constraints(&format!("R(x) -> S(x). {} -> false.", body.join(", ")))
                .unwrap()
        };
        assert_eq!(unenumerable_constraint(&wide(MAX_ENUMERABLE_ATOMS)), None);
        assert_eq!(
            unenumerable_constraint(&wide(MAX_ENUMERABLE_ATOMS + 1)),
            Some((1, MAX_ENUMERABLE_ATOMS + 1))
        );
        let head: Vec<String> = (1..=17).map(|i| format!("S{i}(x)")).collect();
        let sigma = parser::parse_constraints(&format!("R(x) -> {}.", head.join(", "))).unwrap();
        assert_eq!(unenumerable_constraint(&sigma), Some((0, 17)));
    }

    #[test]
    fn insert_justified_in_respects_removed_context() {
        // Global-justification scenario of Example 3: +S(a,b,c) is
        // justified w.r.t. D, but not w.r.t. D − {R(a,b)}.
        let (db, sigma, _) = example1();
        let fs = FactSet::new(vec![Fact::parts("S", &["a", "b", "c"])]);
        assert!(insert_justified_in(
            &sigma,
            &fs,
            &PatchSource::identity(&db)
        ));
        let removed = PatchSource::with(&db, [], [Fact::parts("R", &["a", "b"])]);
        assert!(!insert_justified_in(&sigma, &fs, &removed));
    }
}
