//! The unified appliance error type.
//!
//! Before this module, every subsystem surfaced its own enum
//! (`StorageError`, `ExecError`, `ClusterError`, `DocError`,
//! `ContentError`, `RdbmsError`, `UpgradeError`) and callers had to
//! import and match all seven. The appliance promise
//! (§3.1: one box, one surface) extends to failure reporting: public
//! entry points on [`crate::Impliance`] and friends return a single
//! [`Error`] carrying a stable machine-readable [`ErrorKind`] plus the
//! original subsystem message. Crates keep their internal enums — the
//! `From` impls here are the only coupling.

use std::fmt;

use impliance_baselines::{ContentError, RdbmsError};
use impliance_cluster::{ClusterError, UpgradeError};
use impliance_docmodel::DocError;
use impliance_query::{DistError, ExecError};
use impliance_storage::StorageError;

use crate::appliance::ApplianceError;

/// Stable, machine-matchable failure categories. Callers should match on
/// this rather than parsing messages; new kinds may be added, so always
/// keep a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Input text (JSON, SQL, CSV, …) could not be parsed.
    Parse,
    /// A referenced document, path, table, column, or item does not exist.
    NotFound,
    /// Stored bytes failed decoding or an integrity check.
    Corrupt,
    /// A write conflicted with newer state (e.g. stale version).
    Conflict,
    /// The request was well-formed but semantically invalid (bad plan,
    /// schema violation, arity mismatch, unknown metadata field).
    InvalidInput,
    /// A cluster resource is down, missing, or cannot satisfy an
    /// availability constraint.
    Unavailable,
    /// The appliance shed this request under load (quota exhausted,
    /// queue full, or deadline unmeetable). Transient by design: check
    /// [`Error::retry_after_ms`] for when a retry is worthwhile.
    Overloaded,
    /// Anything that does not fit a more specific kind.
    Internal,
}

impl ErrorKind {
    /// Stable lower-snake name (used in logs and serialized errors).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Conflict => "conflict",
            ErrorKind::InvalidInput => "invalid_input",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The single error type returned by public appliance entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    retry_after_ms: Option<u64>,
}

impl Error {
    /// Build an error from a kind and message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Error {
        Error {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Build an [`ErrorKind::Overloaded`] rejection carrying the
    /// workload manager's retry-after hint, milliseconds.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Error {
        Error {
            kind: ErrorKind::Overloaded,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// The stable category.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The human-readable message from the originating subsystem.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// For [`ErrorKind::Overloaded`] rejections: milliseconds after
    /// which a retry has a realistic chance of being admitted. `None`
    /// for every other kind.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.retry_after_ms
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for Error {}

impl From<DocError> for Error {
    fn from(e: DocError) -> Error {
        let kind = match &e {
            DocError::Parse { .. } => ErrorKind::Parse,
            DocError::PathNotFound(_) => ErrorKind::NotFound,
            DocError::Conversion(_) | DocError::TypeMismatch { .. } => ErrorKind::InvalidInput,
        };
        Error::new(kind, e.to_string())
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Error {
        let kind = match &e {
            StorageError::Corrupt { .. } | StorageError::BadBlock(_) => ErrorKind::Corrupt,
            StorageError::StaleVersion { .. } => ErrorKind::Conflict,
        };
        Error::new(kind, e.to_string())
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Error {
        match e {
            ExecError::Storage(inner) => Error::from(inner),
            ExecError::BadPlan(m) => Error::new(ErrorKind::InvalidInput, format!("bad plan: {m}")),
        }
    }
}

impl From<ClusterError> for Error {
    fn from(e: ClusterError) -> Error {
        Error::new(ErrorKind::Unavailable, e.to_string())
    }
}

impl From<DistError> for Error {
    fn from(e: DistError) -> Error {
        match e {
            DistError::Cluster(inner) => Error::from(inner),
            DistError::Exec(inner) => Error::from(inner),
        }
    }
}

impl From<ApplianceError> for Error {
    fn from(e: ApplianceError) -> Error {
        let ApplianceError::NotFound(id) = e;
        Error::new(ErrorKind::NotFound, format!("{id} not found"))
    }
}

impl From<ContentError> for Error {
    fn from(e: ContentError) -> Error {
        let kind = match &e {
            ContentError::UnknownMetadataField(_) => ErrorKind::InvalidInput,
            ContentError::NotFound(_) => ErrorKind::NotFound,
        };
        Error::new(kind, e.to_string())
    }
}

impl From<RdbmsError> for Error {
    fn from(e: RdbmsError) -> Error {
        let kind = match &e {
            RdbmsError::NoSuchTable(_) | RdbmsError::NoSuchColumn(_) => ErrorKind::NotFound,
            RdbmsError::SchemaViolation(_) => ErrorKind::InvalidInput,
        };
        Error::new(kind, e.to_string())
    }
}

impl From<UpgradeError> for Error {
    fn from(e: UpgradeError) -> Error {
        Error::new(ErrorKind::Unavailable, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::DocId;

    #[test]
    fn every_subsystem_enum_converts_with_a_stable_kind() {
        let cases: Vec<(Error, ErrorKind)> = vec![
            (
                DocError::Parse {
                    offset: 3,
                    message: "bad".into(),
                }
                .into(),
                ErrorKind::Parse,
            ),
            (
                DocError::PathNotFound("a.b".into()).into(),
                ErrorKind::NotFound,
            ),
            (
                StorageError::StaleVersion {
                    latest: 2,
                    attempted: 1,
                }
                .into(),
                ErrorKind::Conflict,
            ),
            (
                StorageError::BadBlock("crc".into()).into(),
                ErrorKind::Corrupt,
            ),
            (
                ExecError::BadPlan("project".into()).into(),
                ErrorKind::InvalidInput,
            ),
            (
                ClusterError::NoNodeOfKind("grid").into(),
                ErrorKind::Unavailable,
            ),
            (
                ApplianceError::NotFound(DocId(9)).into(),
                ErrorKind::NotFound,
            ),
            (ContentError::NotFound(7).into(), ErrorKind::NotFound),
            (
                RdbmsError::NoSuchTable("claims".into()).into(),
                ErrorKind::NotFound,
            ),
            (
                UpgradeError::CannotMaintainAvailability("data").into(),
                ErrorKind::Unavailable,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.kind(), want, "{err}");
        }
    }

    #[test]
    fn nested_exec_storage_errors_flatten_to_the_storage_kind() {
        let e: Error = ExecError::Storage(StorageError::Corrupt {
            offset: 0,
            message: "magic".into(),
        })
        .into();
        assert_eq!(e.kind(), ErrorKind::Corrupt);
        assert!(e.to_string().starts_with("corrupt: "));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ErrorKind::NotFound.as_str(), "not_found");
        assert_eq!(ErrorKind::InvalidInput.to_string(), "invalid_input");
        assert_eq!(ErrorKind::Overloaded.as_str(), "overloaded");
    }

    #[test]
    fn overloaded_carries_a_retry_hint_and_other_kinds_do_not() {
        let e = Error::overloaded("tenant quota exhausted", 120);
        assert_eq!(e.kind(), ErrorKind::Overloaded);
        assert_eq!(e.retry_after_ms(), Some(120));
        let plain = Error::new(ErrorKind::Unavailable, "node down");
        assert_eq!(plain.retry_after_ms(), None);
    }
}
