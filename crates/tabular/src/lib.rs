//! # silofuse-tabular
//!
//! The tabular-data substrate of the SiloFuse reproduction: schemas over
//! mixed categorical/continuous columns, validated column-major tables,
//! invertible feature encodings (one-hot, standard/min-max scaling, the
//! quantile-Gaussian transform TabDDPM uses), vertical partitioning across
//! silos, seeded train/holdout splits, and a Gaussian-copula generator that
//! reproduces the schema statistics of the paper's nine benchmark datasets
//! (Table II).
//!
//! ## Example: generate a paper dataset and partition it across 4 silos
//!
//! ```
//! use silofuse_tabular::profiles;
//! use silofuse_tabular::partition::{PartitionPlan, PartitionStrategy};
//!
//! let profile = profiles::loan();
//! let table = profile.generate(512, 42);
//! let plan = PartitionPlan::new(table.n_cols(), 4, PartitionStrategy::Default);
//! let silos = plan.split(&table);
//! assert_eq!(silos.len(), 4);
//! assert_eq!(silos.iter().map(|s| s.n_cols()).sum::<usize>(), table.n_cols());
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod encode;
pub mod math;
pub mod partition;
pub mod profiles;
pub mod schema;
pub mod sparse;
pub mod split;
pub mod synthetic;
pub mod table;

pub use encode::{CategoricalTargets, ColumnDecoder, NumericCodec, ScalingKind, TableEncoder};
pub use schema::{ColumnKind, ColumnMeta, Schema};
pub use sparse::{SparseBatch, SparsePolicy};
pub use table::{Column, Table, TableError};
