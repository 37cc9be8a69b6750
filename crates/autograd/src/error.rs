//! Error types for tensor construction and checkpoint I/O.

use std::error::Error;
use std::fmt;
use std::io;

/// Error constructing or reshaping a [`Tensor`](crate::Tensor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The product of the dimensions does not match the data length.
    ShapeDataMismatch {
        /// The requested shape.
        shape: Vec<usize>,
        /// The actual number of elements supplied.
        len: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, len } => write!(
                f,
                "shape {shape:?} requires {} elements but {len} were supplied",
                shape.iter().product::<usize>()
            ),
        }
    }
}

impl Error for TensorError {}

/// Error while saving or loading model parameters.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's parameter count or shapes do not match the model.
    ParameterMismatch {
        /// What the model expects.
        expected: String,
        /// What the file contains.
        found: String,
    },
    /// The file ended before all declared data was read.
    Truncated,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The CRC32 footer does not match the file contents.
    CorruptedCrc {
        /// CRC computed over the bytes actually read.
        computed: u32,
        /// CRC stored in the footer.
        stored: u32,
    },
    /// A section the reader requires is absent from the file.
    MissingSection(String),
    /// A structural invariant of the format is violated (bad lengths,
    /// impossible counts, non-UTF-8 names, ...).
    Malformed(String),
    /// The checkpoint's `kernel_mode` section says its weights were
    /// trained by the fast-math GEMM tier, which this build does not have.
    /// Loading them under strict kernels would silently diverge from the
    /// run that wrote them, so the trainer refuses instead of falling back
    /// to a fresh run, and the serving daemon keeps its current policy.
    KernelModeMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a hero checkpoint file"),
            CheckpointError::ParameterMismatch { expected, found } => {
                write!(f, "checkpoint mismatch: expected {expected}, found {found}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "checkpoint format version {v} is not supported")
            }
            CheckpointError::CorruptedCrc { computed, stored } => write!(
                f,
                "checkpoint crc mismatch: computed {computed:#010x}, stored {stored:#010x}"
            ),
            CheckpointError::MissingSection(name) => {
                write!(f, "checkpoint is missing required section `{name}`")
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::KernelModeMismatch => write!(
                f,
                "checkpoint was written under kernel mode `fast`, which this build does \
                 not have (it runs `strict`); start a fresh run"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_error_display_mentions_counts() {
        let e = TensorError::ShapeDataMismatch {
            shape: vec![2, 3],
            len: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains('6') && msg.contains('5'), "{msg}");
    }

    #[test]
    fn checkpoint_error_wraps_io() {
        let e = CheckpointError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
        assert_send_sync::<CheckpointError>();
    }
}
