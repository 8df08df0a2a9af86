//! Huffman coding of quantised weight streams — the third stage of Deep
//! Compression ("a three stage method for storing the network involving
//! pruning, quantisation, and Huffman coding", §III-A).
//!
//! The encoder is a standard frequency-built Huffman tree over `u16`
//! symbols; the network-level helper maps a ternarised network's weights
//! to the three-symbol alphabet `{-W, 0, +W}` and reports the bytes of
//! the coded stream against dense and CSR storage, closing the
//! storage-pipeline loop the paper's technique references.

use cnn_stack_nn::Network;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// A canonical Huffman codebook over `u16` symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code (bit pattern, bit length) per symbol.
    codes: HashMap<u16, (u32, u8)>,
}

/// A Huffman-coded symbol stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HuffmanStream {
    /// Packed bits, most significant bit first within each byte.
    pub bytes: Vec<u8>,
    /// Total valid bits in `bytes`.
    pub bit_len: usize,
    /// Number of encoded symbols.
    pub symbols: usize,
}

#[derive(PartialEq, Eq)]
enum Node {
    Leaf(u16),
    Internal(Box<Node>, Box<Node>),
}

impl HuffmanCode {
    /// Builds a code from symbol frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is empty.
    pub fn build(stream: &[u16]) -> Self {
        assert!(
            !stream.is_empty(),
            "cannot build a code from an empty stream"
        );
        let mut freq: HashMap<u16, u64> = HashMap::new();
        for &s in stream {
            *freq.entry(s).or_insert(0) += 1;
        }
        // Min-heap keyed on (count, tiebreak) for determinism.
        struct Entry(u64, u64, Node);
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0 && self.1 == other.1
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap.
                (other.0, other.1).cmp(&(self.0, self.1))
            }
        }
        let mut tiebreak = 0u64;
        let mut heap: BinaryHeap<Entry> = freq
            .iter()
            .map(|(&s, &c)| {
                tiebreak += 1;
                Entry(c, s as u64, Node::Leaf(s))
            })
            .collect();
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            tiebreak += 1;
            heap.push(Entry(
                a.0 + b.0,
                u64::MAX - tiebreak,
                Node::Internal(Box::new(a.2), Box::new(b.2)),
            ));
        }
        let root = heap.pop().expect("non-empty").2;
        let mut codes = HashMap::new();
        assign(&root, 0, 0, &mut codes);
        // Degenerate single-symbol stream: give it a 1-bit code.
        if codes.len() == 1 {
            let (&s, _) = codes.iter().next().expect("one symbol");
            codes.insert(s, (0, 1));
        }
        HuffmanCode { codes }
    }

    /// Bits assigned to a symbol, if it is in the alphabet.
    pub fn code_len(&self, symbol: u16) -> Option<u8> {
        self.codes.get(&symbol).map(|&(_, len)| len)
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.codes.len()
    }

    /// Encodes a stream.
    ///
    /// # Panics
    ///
    /// Panics if a symbol is outside the alphabet.
    pub fn encode(&self, stream: &[u16]) -> HuffmanStream {
        let mut bytes = Vec::new();
        let mut acc: u64 = 0;
        let mut acc_bits: u8 = 0;
        let mut bit_len = 0usize;
        for &s in stream {
            let &(code, len) = self
                .codes
                .get(&s)
                .unwrap_or_else(|| panic!("symbol {s} not in alphabet"));
            acc = (acc << len) | code as u64;
            acc_bits += len;
            bit_len += len as usize;
            while acc_bits >= 8 {
                acc_bits -= 8;
                bytes.push(((acc >> acc_bits) & 0xFF) as u8);
            }
        }
        if acc_bits > 0 {
            bytes.push(((acc << (8 - acc_bits)) & 0xFF) as u8);
        }
        HuffmanStream {
            bytes,
            bit_len,
            symbols: stream.len(),
        }
    }

    /// Decodes `stream` back to its symbols.
    ///
    /// # Panics
    ///
    /// Panics if the bitstream is not decodable under this code.
    pub fn decode(&self, stream: &HuffmanStream) -> Vec<u16> {
        // Invert the codebook (code bits, len) -> symbol.
        let inverse: HashMap<(u32, u8), u16> =
            self.codes.iter().map(|(&s, &(c, l))| ((c, l), s)).collect();
        let mut out = Vec::with_capacity(stream.symbols);
        let mut code: u32 = 0;
        let mut len: u8 = 0;
        let mut consumed = 0usize;
        'outer: for (i, &byte) in stream.bytes.iter().enumerate() {
            for bit in (0..8).rev() {
                if i * 8 + (7 - bit) >= stream.bit_len {
                    break 'outer;
                }
                code = (code << 1) | ((byte >> bit) & 1) as u32;
                len += 1;
                if let Some(&s) = inverse.get(&(code, len)) {
                    out.push(s);
                    consumed += len as usize;
                    code = 0;
                    len = 0;
                    if out.len() == stream.symbols {
                        break 'outer;
                    }
                }
                assert!(len < 33, "undecodable bitstream");
            }
        }
        let _ = consumed;
        assert_eq!(out.len(), stream.symbols, "truncated bitstream");
        out
    }
}

fn assign(node: &Node, code: u32, len: u8, out: &mut HashMap<u16, (u32, u8)>) {
    match node {
        Node::Leaf(s) => {
            out.insert(*s, (code, len));
        }
        Node::Internal(l, r) => {
            assign(l, code << 1, len + 1, out);
            assign(r, (code << 1) | 1, len + 1, out);
        }
    }
}

/// Storage accounting for a Huffman-coded ternary network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HuffmanReport {
    /// Weights encoded.
    pub symbols: usize,
    /// f32 dense bytes for the same weights.
    pub dense_bytes: usize,
    /// Huffman-coded bytes (stream + per-layer scale pair).
    pub coded_bytes: usize,
    /// Mean bits per weight achieved.
    pub bits_per_weight: f64,
}

/// Symbolises every conv/linear weight of a *ternarised* network
/// (`-W → 0`, `0 → 1`, `+W → 2`) and Huffman-codes the stream, returning
/// the storage report. Call after [`crate::ttq::ttq_quantise`].
///
/// # Panics
///
/// Panics if a weight tensor holds more than three distinct values
/// (the network is not ternary).
pub fn code_ternary_network(net: &mut Network) -> HuffmanReport {
    let mut stream: Vec<u16> = Vec::new();
    let mut layers = 0usize;
    for p in net.params() {
        // Only weight tensors (rank >= 2) are ternarised; biases and
        // batch-norm parameters stay full precision.
        if p.value.shape().rank() < 2 {
            continue;
        }
        layers += 1;
        let mut pos = f32::NAN;
        let mut neg = f32::NAN;
        for &v in p.value.data() {
            let s = if v == 0.0 {
                1
            } else if v > 0.0 {
                assert!(
                    pos.is_nan() || pos == v,
                    "network is not ternary (positive)"
                );
                pos = v;
                2
            } else {
                assert!(
                    neg.is_nan() || neg == v,
                    "network is not ternary (negative)"
                );
                neg = v;
                0
            };
            stream.push(s);
        }
    }
    let code = HuffmanCode::build(&stream);
    let encoded = code.encode(&stream);
    // Each layer also stores its two f32 scales.
    let coded_bytes = encoded.bytes.len() + layers * 8;
    HuffmanReport {
        symbols: stream.len(),
        dense_bytes: stream.len() * 4,
        coded_bytes,
        bits_per_weight: encoded.bit_len as f64 / stream.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttq;
    use cnn_stack_models::vgg16_width;

    #[test]
    fn roundtrip_simple_stream() {
        let stream = vec![0u16, 1, 1, 2, 2, 2, 2, 1, 0, 2];
        let code = HuffmanCode::build(&stream);
        let enc = code.encode(&stream);
        assert_eq!(code.decode(&enc), stream);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut stream = vec![7u16; 100];
        stream.extend(vec![3u16; 10]);
        stream.extend(vec![1u16; 2]);
        let code = HuffmanCode::build(&stream);
        assert!(code.code_len(7).unwrap() <= code.code_len(3).unwrap());
        assert!(code.code_len(3).unwrap() <= code.code_len(1).unwrap());
    }

    #[test]
    fn single_symbol_stream_works() {
        let stream = vec![5u16; 40];
        let code = HuffmanCode::build(&stream);
        let enc = code.encode(&stream);
        assert_eq!(enc.bit_len, 40);
        assert_eq!(code.decode(&enc), stream);
    }

    #[test]
    fn achieves_near_entropy_on_skewed_ternary() {
        // 90% zeros, 5%/5% signs: entropy = 0.569 bits/symbol.
        let mut stream = Vec::new();
        for i in 0..2000 {
            stream.push(if i % 20 == 0 {
                0
            } else if i % 20 == 1 {
                2
            } else {
                1
            });
        }
        let code = HuffmanCode::build(&stream);
        let enc = code.encode(&stream);
        let bits = enc.bit_len as f64 / stream.len() as f64;
        // Huffman on a 3-symbol alphabet cannot beat 1.05 here but must
        // be far below the 2-bit naive encoding.
        assert!(bits < 1.2, "bits/symbol {bits}");
        assert_eq!(code.decode(&enc), stream);
    }

    #[test]
    fn roundtrip_long_random_stream() {
        let stream: Vec<u16> = (0..5000)
            .map(|i| ((i * 2654435761u64) % 17) as u16)
            .collect();
        let code = HuffmanCode::build(&stream);
        let enc = code.encode(&stream);
        assert_eq!(code.decode(&enc), stream);
        assert!(enc.bytes.len() * 8 >= enc.bit_len);
    }

    #[test]
    fn ternary_network_compresses_far_below_dense() {
        let mut model = vgg16_width(10, 0.1);
        ttq::ttq_quantise(&mut model.network, 0.15);
        let report = code_ternary_network(&mut model.network);
        assert!(report.symbols > 10_000);
        // Deep Compression's point: coded storage is a small fraction of
        // dense f32 (here < 8% = <2.56 bits/weight versus 32).
        assert!(
            (report.coded_bytes as f64) < 0.08 * report.dense_bytes as f64,
            "coded {} vs dense {}",
            report.coded_bytes,
            report.dense_bytes
        );
        assert!(report.bits_per_weight < 2.0);
    }

    #[test]
    #[should_panic(expected = "not ternary")]
    fn non_ternary_network_rejected() {
        let mut model = vgg16_width(10, 0.05);
        let _ = code_ternary_network(&mut model.network);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_rejected() {
        let _ = HuffmanCode::build(&[]);
    }
}
