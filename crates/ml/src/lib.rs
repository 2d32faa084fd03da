//! The machine-learning toolchain of the data-driven CHC solver.
//!
//! This crate implements the paper's two learning algorithms:
//!
//! * [`linear_arbitrary`] — **Algorithm 1**: recursive linear
//!   classification producing classifiers that are arbitrary boolean
//!   combinations of polyhedral (linear) atoms, even when the samples
//!   are not linearly separable.
//! * [`learn`] — **Algorithm 2**: decision-tree generalization over
//!   the feature attributes discovered by Algorithm 1 (plus predefined
//!   `mod`/Box features), selecting high-information-gain attributes
//!   to combat over- and under-fitting.
//!
//! The linear classifiers themselves ([`linear_classify`]) are a
//! soft-margin SVM and an exact integer perceptron, both emitting
//! exact integer hyperplanes after rationalization and intercept
//! refit.
//!
//! Each [`learn_seeded`] call builds one table over its [`Dataset`]:
//! rows are the samples (positives first), and a column holds one
//! direction's projection of every row with the rows' ascending order,
//! computed the first time any layer asks for it. Algorithm 1's
//! recursion levels and the decision tree's nodes work on row-index
//! subsets of that table, so seed scoring, intercept refits, partitions
//! and tree splits share columns instead of re-projecting and
//! re-sorting samples.
//!
//! The public surface is what callers use: [`learn`] and
//! [`learn_seeded`] (the CEGAR learner), [`linear_arbitrary`]
//! (Algorithm 1 alone), [`linear_classify`] with [`ClassifierKind`]
//! and [`Hyperplane`], the sample sets ([`Dataset`], [`Sample`]) and
//! the seed store ([`SeedStore`], [`SeedPlane`]).
//!
//! # Examples
//!
//! Learning the diamond invariant of the paper's program (a):
//!
//! ```
//! use linarb_arith::int;
//! use linarb_logic::{Model, Var};
//! use linarb_ml::{learn, Dataset, LearnConfig};
//!
//! let mut d = Dataset::new(2);
//! for p in [(0, -2), (0, -1), (0, 0), (0, 1)] {
//!     d.add_positive(vec![int(p.0), int(p.1)]);
//! }
//! d.add_negative(vec![int(3), int(-3)]);
//! d.add_negative(vec![int(-3), int(3)]);
//! let params = vec![Var::from_index(0), Var::from_index(1)];
//! let (f, _) = learn(&d, &params, &LearnConfig::default())?;
//! let mut m = Model::new();
//! m.assign(params[0], int(0));
//! m.assign(params[1], int(0));
//! assert!(f.eval(&m));
//! # Ok::<(), linarb_ml::LearnError>(())
//! ```

mod algorithm;
mod dataset;
mod dtree;
mod learn;
mod linear;
mod seed;
mod table;

pub use algorithm::{linear_arbitrary, LearnConfig, LearnError};
pub use dataset::{Dataset, Sample};
pub use learn::{learn, learn_seeded, LearnStats};
pub use linear::{linear_classify, ClassifierKind, Hyperplane};
pub use seed::{SeedPlane, SeedStore};
