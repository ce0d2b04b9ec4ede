//! # fam-geometry
//!
//! Geometric substrates for the FAM reproduction: Pareto dominance, skyline
//! computation (the shared preprocessing of every algorithm in the paper),
//! the 2-D angle algebra and best-point envelope that power the exact
//! dynamic-programming algorithm (Section IV), and bitsets for the SKY-DOM
//! baseline's dominance-coverage bookkeeping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod angles;
pub mod bitset;
pub mod dominance;
pub mod envelope;
pub mod skyline;

pub use angles::{switch_angle, utility_at_angle, weights_at_angle, HALF_PI};
pub use bitset::BitSet;
pub use dominance::{dom_compare, dominates, incomparable, DomOrdering};
pub use envelope::{EnvSegment, Envelope};
pub use skyline::{
    dominated_sets, skyline, skyline_2d, skyline_3d, skyline_bnl, skyline_sfs, skyline_sfs_subset,
};
