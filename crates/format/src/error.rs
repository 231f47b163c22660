//! Error type for event encoding, decoding, and descriptor parsing.

use ktrace_lockless::LayoutError;
use std::fmt;

/// Errors produced while encoding or decoding trace events and descriptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// A value the event-word layout cannot hold, raised by the header and
    /// ID constructors.
    Layout(LayoutError),
    /// A field-spec token was not one of `8`, `16`, `32`, `64`, `str`.
    BadSpecToken(String),
    /// A display template referenced a field index that the spec does not have.
    BadTemplateIndex {
        /// Index referenced by the template (`%N[..]`).
        index: usize,
        /// Number of fields in the spec.
        fields: usize,
    },
    /// A display template was syntactically malformed.
    BadTemplate(String),
    /// A display template never references one of the spec's declared fields,
    /// so the spec token count and the template's references disagree.
    UnreferencedField {
        /// Lowest field index the template never references.
        index: usize,
        /// Number of fields in the spec.
        fields: usize,
    },
    /// Payload words ran out while decoding fields according to a spec.
    Truncated {
        /// What was being decoded when the words ran out.
        context: &'static str,
    },
    /// A string field contained a byte length inconsistent with the event size.
    BadStringLength {
        /// Claimed byte length.
        len: u64,
        /// Words remaining in the payload.
        remaining_words: usize,
    },
    /// Descriptor registry text form could not be parsed.
    BadRegistryLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Layout(e) => e.fmt(f),
            FormatError::BadSpecToken(t) => write!(f, "bad field-spec token {t:?}"),
            FormatError::BadTemplateIndex { index, fields } => {
                write!(
                    f,
                    "template references field %{index} but spec has {fields} fields"
                )
            }
            FormatError::BadTemplate(t) => write!(f, "malformed display template: {t}"),
            FormatError::UnreferencedField { index, fields } => write!(
                f,
                "template never references field %{index} (spec declares {fields} fields)"
            ),
            FormatError::Truncated { context } => {
                write!(f, "payload truncated while decoding {context}")
            }
            FormatError::BadStringLength {
                len,
                remaining_words,
            } => write!(
                f,
                "string field claims {len} bytes but only {remaining_words} words remain"
            ),
            FormatError::BadRegistryLine { line, reason } => {
                write!(f, "bad registry line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<LayoutError> for FormatError {
    fn from(e: LayoutError) -> FormatError {
        FormatError::Layout(e)
    }
}
