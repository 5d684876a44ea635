//! # silofuse-metrics
//!
//! The paper's benchmark framework (§V-B): a composite **resemblance**
//! score built from five statistical similarities, a **utility** score from
//! train-on-synthetic / test-on-real downstream models, and a **privacy**
//! score from three attacks (singling-out, linkability, attribute
//! inference). Also provides the association-matrix machinery behind the
//! Table V correlation-difference heatmaps.
//!
//! All scores are on the paper's 0–100 scale with higher = better
//! (for privacy: higher = more resistant).

#![warn(missing_docs)]

pub mod correlation;
pub mod features;
pub mod privacy;
pub mod resemblance;
pub mod stats;
pub mod utility;

pub use correlation::{correlation_difference, CorrelationDifference};
pub use privacy::{privacy, try_privacy, PrivacyConfig, PrivacyReport};
pub use resemblance::{
    per_column_report, resemblance, try_resemblance, ColumnReport, ResemblanceConfig,
    ResemblanceReport,
};
pub use utility::{try_utility, utility, UtilityConfig, UtilityReport};

use silofuse_tabular::Table;

/// Why a metric cannot score the tables it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricError {
    /// A table's schema differs from the real table's.
    SchemaMismatch {
        /// Which table differs: `"synthetic"` or `"holdout"`.
        table: &'static str,
    },
    /// A table the metric must draw rows from has none.
    EmptyTable {
        /// Which table is empty: `"real"`, `"synthetic"` or `"holdout"`.
        table: &'static str,
    },
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::SchemaMismatch { table } => {
                write!(f, "schema mismatch: the {table} table's schema differs from the real one")
            }
            MetricError::EmptyTable { table } => {
                write!(f, "empty table: the {table} table has no rows")
            }
        }
    }
}

impl std::error::Error for MetricError {}

/// `Ok` when `other` has `real`'s schema, else the mismatch naming `other`.
fn same_schema(real: &Table, other: &Table, table: &'static str) -> Result<(), MetricError> {
    if real.schema() == other.schema() {
        Ok(())
    } else {
        Err(MetricError::SchemaMismatch { table })
    }
}

/// `Ok` when `t` has rows, else the error naming it.
fn has_rows(t: &Table, table: &'static str) -> Result<(), MetricError> {
    if t.n_rows() > 0 {
        Ok(())
    } else {
        Err(MetricError::EmptyTable { table })
    }
}
