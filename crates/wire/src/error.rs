use core::fmt;

/// Errors produced while parsing or emitting wire-format packets.
///
/// Every variant corresponds to a concrete way an incoming buffer can fail
/// validation. The receive path in `tcpdemux-stack` counts these per variant,
/// so the set is intentionally fine-grained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer is shorter than the minimum (or declared) header length.
    Truncated,
    /// The IP version nibble is not 4.
    BadVersion,
    /// A header-length field is smaller than the fixed header or larger than
    /// the buffer.
    BadHeaderLen,
    /// The total-length field disagrees with the buffer in an unrecoverable
    /// way (smaller than the header, or larger than the buffer).
    BadTotalLen,
    /// A checksum (IPv4 header or TCP) failed verification.
    BadChecksum,
    /// The packet is an IP fragment; reassembly is out of scope for this
    /// stack, so fragments are rejected rather than mis-parsed.
    Fragmented,
    /// A TCP option's length byte is inconsistent with the option area.
    BadOption,
    /// The payload handed to an emit routine does not fit the buffer or the
    /// 16-bit length fields of the protocol.
    PayloadTooLong,
    /// A source or destination port is zero where a real port is required.
    BadPort,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            WireError::Truncated => "buffer truncated",
            WireError::BadVersion => "IP version is not 4",
            WireError::BadHeaderLen => "header length field invalid",
            WireError::BadTotalLen => "total length field invalid",
            WireError::BadChecksum => "checksum verification failed",
            WireError::Fragmented => "IP fragment (reassembly unsupported)",
            WireError::BadOption => "malformed TCP option",
            WireError::PayloadTooLong => "payload too long",
            WireError::BadPort => "port must be nonzero",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(WireError::Truncated.to_string(), "buffer truncated");
        assert_eq!(
            WireError::BadChecksum.to_string(),
            "checksum verification failed"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(WireError::BadVersion);
    }

    #[test]
    fn variants_are_distinguishable() {
        assert_ne!(WireError::Truncated, WireError::BadVersion);
        assert_ne!(WireError::BadHeaderLen, WireError::BadTotalLen);
    }
}
