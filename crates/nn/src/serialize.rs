//! Binary serialisation of network parameters.
//!
//! The paper publishes its trained network implementations "for the
//! community to scrutinise and expand" (§IV-F); a usable artifact
//! therefore needs trained weights to survive a process. The format is
//! deliberately simple and versioned: a magic/version header, a tensor
//! count, then per tensor its rank, dimensions and little-endian f32
//! payload, followed by an optional mask section (pruning masks are part
//! of a compressed model's identity).
//!
//! Parameters are matched to a network **by position**: the destination
//! network must have the same architecture (same layer sequence and
//! shapes) as the source.

use crate::layer::Param;
use crate::network::Network;
use std::fmt;

const MAGIC: &[u8; 8] = b"CNNSTK01";

/// Error deserialising a parameter blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadParamsError {
    /// The blob does not start with the format magic.
    BadMagic,
    /// The blob ended mid-structure.
    Truncated,
    /// A structural header holds an impossible value (zero/oversized
    /// rank, a dimension product overflowing `usize`, or a payload
    /// length that cannot be addressed).
    CorruptHeader {
        /// Byte offset of the offending header field.
        offset: usize,
    },
    /// Tensor count differs from the destination network's.
    ParamCountMismatch {
        /// Tensors in the blob.
        stored: usize,
        /// Parameters in the destination network.
        expected: usize,
    },
    /// A tensor's shape differs from the destination parameter's.
    ShapeMismatch {
        /// Parameter index.
        index: usize,
    },
}

impl fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadParamsError::BadMagic => f.write_str("not a cnn-stack parameter blob"),
            LoadParamsError::Truncated => f.write_str("parameter blob is truncated"),
            LoadParamsError::CorruptHeader { offset } => {
                write!(f, "corrupt structural header at byte offset {offset}")
            }
            LoadParamsError::ParamCountMismatch { stored, expected } => write!(
                f,
                "blob holds {stored} tensors but the network has {expected} parameters"
            ),
            LoadParamsError::ShapeMismatch { index } => {
                write!(f, "tensor {index} has a different shape in the blob")
            }
        }
    }
}

impl std::error::Error for LoadParamsError {}

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn push_tensor(out: &mut Vec<u8>, t: &cnn_stack_tensor::Tensor) {
    push_usize(out, t.shape().rank());
    for &d in t.shape().dims() {
        push_usize(out, d);
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadParamsError> {
        // Checked: a corrupt length header can make `pos + n` overflow,
        // which must read as truncation, not a panic.
        let end = self.pos.checked_add(n).ok_or(LoadParamsError::Truncated)?;
        if end > self.bytes.len() {
            return Err(LoadParamsError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn read_usize(&mut self) -> Result<usize, LoadParamsError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| LoadParamsError::Truncated)?;
        Ok(u64::from_le_bytes(b) as usize)
    }

    fn read_tensor(&mut self) -> Result<cnn_stack_tensor::Tensor, LoadParamsError> {
        let rank_offset = self.pos;
        let rank = self.read_usize()?;
        if rank == 0 || rank > 8 {
            return Err(LoadParamsError::CorruptHeader {
                offset: rank_offset,
            });
        }
        let dims_offset = self.pos;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.read_usize()?);
        }
        // A corrupted dimension header can claim astronomically large
        // extents; checked arithmetic turns those into errors instead of
        // multiply-overflow panics (or absurd allocations).
        let len = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(LoadParamsError::CorruptHeader {
                offset: dims_offset,
            })?;
        let byte_len = len.checked_mul(4).ok_or(LoadParamsError::CorruptHeader {
            offset: dims_offset,
        })?;
        let raw = self.take(byte_len)?;
        let mut data = Vec::with_capacity(len);
        for c in raw.chunks_exact(4) {
            let b: [u8; 4] = c.try_into().map_err(|_| LoadParamsError::Truncated)?;
            data.push(f32::from_le_bytes(b));
        }
        Ok(cnn_stack_tensor::Tensor::from_vec(dims, data))
    }
}

/// Serialises every parameter (values and pruning masks) of `net`.
pub fn save_params(net: &mut Network) -> Vec<u8> {
    let params = net.params();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_usize(&mut out, params.len());
    for p in &params {
        push_tensor(&mut out, &p.value);
    }
    // Mask section: a presence byte per parameter, then present masks.
    for p in &params {
        out.push(u8::from(p.mask.is_some()));
    }
    for p in &params {
        if let Some(mask) = &p.mask {
            push_tensor(&mut out, &mask.to_tensor());
        }
    }
    out
}

/// Restores parameters saved by [`save_params`] into `net`.
///
/// Parameters land in the dense master copies; if the destination
/// network had CSR snapshots installed
/// ([`Conv2d::set_format`](crate::Conv2d::set_format)), re-apply the
/// format after loading.
///
/// # Errors
///
/// Returns a [`LoadParamsError`] if the blob is malformed or does not
/// match the network's architecture; on error the network is left
/// unmodified.
pub fn load_params(net: &mut Network, bytes: &[u8]) -> Result<(), LoadParamsError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(LoadParamsError::BadMagic);
    }
    let count = r.read_usize()?;
    let expected = net.params().len();
    if count != expected {
        return Err(LoadParamsError::ParamCountMismatch {
            stored: count,
            expected,
        });
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(r.read_tensor()?);
    }
    let mut has_mask = Vec::with_capacity(count);
    for _ in 0..count {
        has_mask.push(r.take(1)?[0] != 0);
    }
    let mut masks = Vec::with_capacity(count);
    for &present in &has_mask {
        masks.push(if present {
            Some(r.read_tensor()?)
        } else {
            None
        });
    }
    // Validate shapes before touching the network.
    for (i, (p, v)) in net.params().iter().zip(&values).enumerate() {
        if p.value.shape() != v.shape() {
            return Err(LoadParamsError::ShapeMismatch { index: i });
        }
    }
    for ((p, value), mask) in net.params_mut().into_iter().zip(values).zip(masks) {
        *p = Param::new(value);
        if let Some(m) = mask {
            p.set_mask(m);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, ExecConfig, Flatten, Linear, Phase, ReLU};
    use cnn_stack_tensor::Tensor;

    fn net(seed: u64) -> Network {
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 16, 3, seed + 1)),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let mut src = net(1);
        let mut dst = net(2);
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32 * 0.1);
        let want = src.forward(&x, Phase::Eval, &ExecConfig::default());
        let before = dst.forward(&x, Phase::Eval, &ExecConfig::default());
        assert!(!want.allclose(&before, 1e-6), "nets must start different");

        let blob = save_params(&mut src);
        load_params(&mut dst, &blob).expect("compatible architectures");
        let after = dst.forward(&x, Phase::Eval, &ExecConfig::default());
        assert!(want.allclose(&after, 0.0));
    }

    #[test]
    fn masks_survive_roundtrip() {
        let mut src = net(3);
        cnn_stack_compress_free_masks(&mut src);
        let blob = save_params(&mut src);
        let mut dst = net(4);
        load_params(&mut dst, &blob).expect("load");
        let mut params = dst.params_mut();
        assert!(params[0].mask.is_some());
        // Mask still pins zeros after an update.
        params[0].value.fill(5.0);
        params[0].apply_mask();
        assert!(params[0].value.count_zeros(0.0) > 0);
    }

    /// Installs a simple mask on the first parameter (standing in for a
    /// pruning pass without a compress-crate dependency).
    fn cnn_stack_compress_free_masks(net: &mut Network) {
        let params = net.params_mut();
        let shape = params[0].value.shape().dims().to_vec();
        let mask = Tensor::from_fn(shape, |i| if i % 2 == 0 { 0.0 } else { 1.0 });
        net.params_mut()[0].set_mask(mask);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut n = net(5);
        assert_eq!(
            load_params(&mut n, b"NOTAMAGICBLOB"),
            Err(LoadParamsError::BadMagic)
        );
    }

    #[test]
    fn truncated_blob_rejected() {
        let mut src = net(6);
        let blob = save_params(&mut src);
        let mut dst = net(7);
        assert_eq!(
            load_params(&mut dst, &blob[..blob.len() / 2]),
            Err(LoadParamsError::Truncated)
        );
        // Every possible truncation point errors cleanly — none panics
        // or is accepted (a shorter prefix can never be a valid blob).
        for cut in 0..blob.len() {
            assert!(
                load_params(&mut dst, &blob[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn zero_length_blob_rejected() {
        let mut dst = net(11);
        assert_eq!(load_params(&mut dst, b""), Err(LoadParamsError::Truncated));
    }

    #[test]
    fn corrupted_length_header_rejected() {
        let mut src = net(12);
        let blob = save_params(&mut src);
        let mut dst = net(13);

        // The first tensor's rank field sits right after the magic (8
        // bytes) and the tensor count (8 bytes). Overwrite it with an
        // impossible rank: must error, not panic.
        let mut bad_rank = blob.clone();
        bad_rank[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            load_params(&mut dst, &bad_rank),
            Err(LoadParamsError::CorruptHeader { offset: 16 })
        );
        let mut zero_rank = blob.clone();
        zero_rank[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            load_params(&mut dst, &zero_rank),
            Err(LoadParamsError::CorruptHeader { offset: 16 })
        );

        // Corrupt the first dimension instead: a huge extent must be
        // rejected by the checked size computation (`4 * 2^62` overflows
        // usize) rather than overflowing or trying to allocate.
        let mut bad_dim = blob.clone();
        bad_dim[24..32].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert_eq!(
            load_params(&mut dst, &bad_dim),
            Err(LoadParamsError::CorruptHeader { offset: 24 })
        );

        // A merely-too-large (but non-overflowing) dimension reads as
        // truncation: the payload it promises is not there.
        let mut long_dim = blob.clone();
        long_dim[24..32].copy_from_slice(&(1u64 << 20).to_le_bytes());
        assert_eq!(
            load_params(&mut dst, &long_dim),
            Err(LoadParamsError::Truncated)
        );

        // The untouched original still loads, so the corruptions above
        // are what tripped the checks.
        load_params(&mut dst, &blob).expect("pristine blob loads");
    }

    #[test]
    fn architecture_mismatch_rejected() {
        let mut src = net(8);
        let blob = save_params(&mut src);
        let mut other = Network::new(vec![Box::new(Linear::new(4, 2, 0))]).unwrap();
        assert!(matches!(
            load_params(&mut other, &blob),
            Err(LoadParamsError::ParamCountMismatch { .. })
        ));
        let mut wrong_shape = Network::new(vec![
            Box::new(Conv2d::new(1, 8, 3, 1, 1, 9)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8 * 16, 3, 10)),
        ])
        .unwrap();
        assert!(matches!(
            load_params(&mut wrong_shape, &blob),
            Err(LoadParamsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn error_messages_are_lowercase_and_descriptive() {
        let e = LoadParamsError::ParamCountMismatch {
            stored: 3,
            expected: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('5'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }
}
