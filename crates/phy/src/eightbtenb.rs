//! A complete 8b/10b encoder/decoder (Widmer–Franaszek).
//!
//! Baldur assumes the non-routing portion of every packet is 8b/10b coded
//! (paper Sec. IV-C): the code's bounded run length — never more than five
//! identical bits in a row — is what lets the line activity detector treat
//! more than 6T of darkness as end-of-packet. This module implements the
//! real code (5b/6b + 3b/4b sub-blocks, running disparity, alternate A7
//! encoding, control characters) so that property can be *tested* rather
//! than assumed.
//!
//! # Example
//!
//! ```
//! use baldur_phy::eightbtenb::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! let codes: Vec<_> = b"baldur".iter().map(|&b| enc.encode_data(b)).collect();
//! let mut dec = Decoder::new();
//! let bytes: Result<Vec<u8>, _> = codes
//!     .iter()
//!     .map(|c| dec.decode(*c).map(|s| s.byte()))
//!     .collect();
//! assert_eq!(bytes.unwrap(), b"baldur");
//! ```

use core::fmt;

/// Running disparity: the sign of the cumulative ones-minus-zeros balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disparity {
    /// More zeros than ones transmitted so far (RD−).
    Negative,
    /// More ones than zeros transmitted so far (RD+).
    Positive,
}

impl Disparity {
    fn flip(self) -> Self {
        match self {
            Disparity::Negative => Disparity::Positive,
            Disparity::Positive => Disparity::Negative,
        }
    }
}

/// A 10-bit code group. Bit 9 is `a` (transmitted first), bit 0 is `j`
/// (transmitted last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code10(pub u16);

impl Code10 {
    /// The bits in transmission order (`a` first).
    pub fn bits(self) -> [bool; 10] {
        let mut out = [false; 10];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (self.0 >> (9 - i)) & 1 == 1;
        }
        out
    }

    /// Number of one bits in the group.
    pub fn ones(self) -> u32 {
        (self.0 & 0x3FF).count_ones()
    }
}

impl fmt::Display for Code10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// A decoded symbol: either a data octet or a control (K) character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symbol {
    /// A data octet (D.x.y).
    Data(u8),
    /// A control character (K.x.y), stored as its octet value.
    Control(u8),
}

impl Symbol {
    /// The raw octet regardless of data/control.
    pub fn byte(self) -> u8 {
        match self {
            Symbol::Data(b) | Symbol::Control(b) => b,
        }
    }

    /// True for control characters.
    pub fn is_control(self) -> bool {
        matches!(self, Symbol::Control(_))
    }
}

/// Errors returned by [`Decoder::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The 6-bit sub-block is not a valid 5b/6b code.
    InvalidSixBit(u8),
    /// The 4-bit sub-block is not a valid 3b/4b code.
    InvalidFourBit(u8),
    /// The code group is valid in isolation but illegal at the current
    /// running disparity.
    DisparityViolation,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidSixBit(v) => write!(f, "invalid 5b/6b sub-block {v:06b}"),
            DecodeError::InvalidFourBit(v) => write!(f, "invalid 3b/4b sub-block {v:04b}"),
            DecodeError::DisparityViolation => write!(f, "running disparity violation"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 5b/6b table, RD− column, indexed by the low five bits (EDCBA) of the
/// octet. Values are `abcdei` with `a` as bit 5.
const FIVE_SIX_NEG: [u8; 32] = [
    0b100111, // D.00
    0b011101, // D.01
    0b101101, // D.02
    0b110001, // D.03
    0b110101, // D.04
    0b101001, // D.05
    0b011001, // D.06
    0b111000, // D.07
    0b111001, // D.08
    0b100101, // D.09
    0b010101, // D.10
    0b110100, // D.11
    0b001101, // D.12
    0b101100, // D.13
    0b011100, // D.14
    0b010111, // D.15
    0b011011, // D.16
    0b100011, // D.17
    0b010011, // D.18
    0b110010, // D.19
    0b001011, // D.20
    0b101010, // D.21
    0b011010, // D.22
    0b111010, // D.23
    0b110011, // D.24
    0b100110, // D.25
    0b010110, // D.26
    0b110110, // D.27
    0b001110, // D.28
    0b101110, // D.29
    0b011110, // D.30
    0b101011, // D.31
];

/// 3b/4b table for data, RD− column, indexed by the high three bits (HGF).
/// Values are `fghj` with `f` as bit 3. Index 7 is the *primary* (P7)
/// encoding; the alternate (A7) is handled in the encoder.
const THREE_FOUR_NEG: [u8; 8] = [
    0b1011, // D.x.0
    0b1001, // D.x.1
    0b0101, // D.x.2
    0b1100, // D.x.3
    0b1101, // D.x.4
    0b1010, // D.x.5
    0b0110, // D.x.6
    0b1110, // D.x.7 (P7)
];

const A7_NEG: u8 = 0b0111;

/// 5b/6b for K.28, RD−.
const K28_SIX_NEG: u8 = 0b001111;

/// 3b/4b table for control characters, RD− column.
const K_THREE_FOUR_NEG: [u8; 8] = [
    0b1011, // K.x.0
    0b0110, // K.x.1
    0b1010, // K.x.2
    0b1100, // K.x.3
    0b1101, // K.x.4
    0b0101, // K.x.5
    0b1001, // K.x.6
    0b0111, // K.x.7
];

/// The valid control characters: K.28.0–K.28.7, K.23.7, K.27.7, K.29.7,
/// K.30.7 — expressed as octets (HGF‖EDCBA).
pub const VALID_CONTROL: [u8; 12] = [
    0x1C, 0x3C, 0x5C, 0x7C, 0x9C, 0xBC, 0xDC, 0xFC, // K.28.0..7
    0xF7, 0xFB, 0xFD, 0xFE, // K.23.7 K.27.7 K.29.7 K.30.7
];

/// The comma character K.28.5, used as a packet delimiter in our tests.
pub const K28_5: u8 = 0xBC;

const fn six_disparity(code: u8) -> i8 {
    (code & 0x3F).count_ones() as i8 * 2 - 6
}

const fn four_disparity(code: u8) -> i8 {
    (code & 0x0F).count_ones() as i8 * 2 - 4
}

const fn complement6(code: u8) -> u8 {
    !code & 0x3F
}

const fn complement4(code: u8) -> u8 {
    !code & 0x0F
}

// ---------------------------------------------------------------------------
// Table-driven fast path.
//
// `encode_data` and `decode` are the hottest per-symbol operations in the
// repo (every simulated packet body flows through them). Since a stateful
// codec step is a pure function of (running disparity, input), the whole
// step — sub-block selection, table reverse scans, disparity checks — is
// evaluated once by the const builders below into compile-time tables:
// 2×256 entries for the encoder, 2×1024 for the decoder (~9 KiB total).
// Every cell of both tables is pinned by a SHA-256 fingerprint in
// `results/golden/reference_fingerprints.json` (see `tests/properties.rs`).

/// One precomputed encoder step: the emitted group and the RD it leaves.
#[derive(Clone, Copy)]
struct EncEntry {
    code: u16,
    rd_pos: bool,
}

/// One precomputed decoder step. `sym` packs the outcome: the high nibble
/// tags the variant ([`DEC_DATA`] &c.), the low byte carries the payload
/// (octet or offending sub-block). `rd_pos` is the RD after the step —
/// equal to the input RD for error entries, which never advance state.
#[derive(Clone, Copy)]
struct DecEntry {
    sym: u16,
    rd_pos: bool,
}

const DEC_DATA: u16 = 0x000;
const DEC_CTRL: u16 = 0x100;
const DEC_BAD6: u16 = 0x200;
const DEC_BAD4: u16 = 0x300;
const DEC_RDVIOL: u16 = 0x400;

/// RD stepping shared by the const builders: applies one sub-block's
/// disparity `d` to the current RD. Returns 0 (RD−), 1 (RD+), or −1 for
/// a running-disparity violation.
const fn rd_after(d: i8, rd_pos: bool) -> i8 {
    if d == 0 {
        rd_pos as i8
    } else if d == 2 && !rd_pos {
        1
    } else if d == -2 && rd_pos {
        0
    } else {
        -1
    }
}

/// One data-encoder step, `(RD, byte)` → `(code, RD′)`, with RD as a
/// bool (`true` = RD+): the 5b/6b and 3b/4b sub-blocks each take the
/// column for the RD in force when they start.
const fn encode_data_step(rd_pos: bool, byte: u8) -> (u16, bool) {
    let x = (byte & 0x1F) as usize; // EDCBA
    let y = (byte >> 5) as usize; // HGF

    let six_neg = FIVE_SIX_NEG[x];
    let six = if six_disparity(six_neg) == 0 {
        // Balanced, but D.07 alternates by rule.
        if x == 7 && rd_pos {
            complement6(six_neg)
        } else {
            six_neg
        }
    } else if rd_pos {
        complement6(six_neg)
    } else {
        six_neg
    };
    let mut rd = rd_pos;
    if six_disparity(six) != 0 {
        rd = !rd;
    }

    // 3b/4b sub-block; pick A7 where P7 would create a run of five.
    let four = if y == 7 {
        let use_a7 = if rd {
            x == 11 || x == 13 || x == 14
        } else {
            x == 17 || x == 18 || x == 20
        };
        let neg = if use_a7 { A7_NEG } else { THREE_FOUR_NEG[7] };
        if rd {
            complement4(neg)
        } else {
            neg
        }
    } else {
        let neg = THREE_FOUR_NEG[y];
        if four_disparity(neg) == 0 {
            // D.x.3 (1100) alternates: transmitted as 0011 at RD+.
            if y == 3 && rd {
                complement4(neg)
            } else {
                neg
            }
        } else if rd {
            complement4(neg)
        } else {
            neg
        }
    };
    if four_disparity(four) != 0 {
        rd = !rd;
    }
    (((six as u16) << 4) | four as u16, rd)
}

/// Reverse 5b/6b lookup: the EDCBA value whose RD− or RD+ column holds
/// `six`; −1 for an unrecognized block.
const fn decode_six_step(six: u8) -> i16 {
    let mut x = 0;
    while x < 32 {
        let neg = FIVE_SIX_NEG[x];
        if six == neg {
            return x as i16;
        }
        if (six_disparity(neg) != 0 || x == 7) && six == complement6(neg) {
            return x as i16;
        }
        x += 1;
    }
    -1
}

/// Reverse 3b/4b data lookup (A7 in either polarity decodes to y = 7);
/// −1 for an unrecognized block.
const fn decode_four_step(four: u8) -> i16 {
    if four == A7_NEG || four == complement4(A7_NEG) {
        return 7;
    }
    let mut y = 0;
    while y < 8 {
        let neg = THREE_FOUR_NEG[y];
        if four == neg {
            return y as i16;
        }
        if (four_disparity(neg) != 0 || y == 3) && four == complement4(neg) {
            return y as i16;
        }
        y += 1;
    }
    -1
}

/// Reverse 3b/4b control lookup. Control 3b/4b codes always track the
/// column for the mid-group disparity, and the columns are mutual
/// complements, so that disparity disambiguates pairs like K.x.2 (1010
/// at RD−) vs K.x.5 (1010 at RD+). −1 for an unrecognized block.
const fn decode_k_four_step(four: u8, rd_mid_pos: bool) -> i16 {
    let mut y = 0;
    while y < 8 {
        let neg = K_THREE_FOUR_NEG[y];
        let expected = if rd_mid_pos { complement4(neg) } else { neg };
        if four == expected {
            return y as i16;
        }
        y += 1;
    }
    -1
}

/// One decoder step. Errors take precedence in the order invalid 6b →
/// 6b disparity → invalid 4b → 4b disparity. The RD must stay within ±1
/// after *each* sub-block, so an RD+ 6b block arriving at RD+ is a
/// violation even if the 4b block would cancel it.
const fn decode_step(rd_pos: bool, code: u16) -> DecEntry {
    let six = ((code >> 4) & 0x3F) as u8;
    let four = (code & 0x0F) as u8;

    let is_k28 = six == K28_SIX_NEG || six == complement6(K28_SIX_NEG);
    let data_x = decode_six_step(six);
    if !is_k28 && data_x < 0 {
        return DecEntry {
            sym: DEC_BAD6 | six as u16,
            rd_pos,
        };
    }

    let rd_mid = rd_after(six_disparity(six), rd_pos);
    if rd_mid < 0 {
        return DecEntry {
            sym: DEC_RDVIOL,
            rd_pos,
        };
    }
    let rd_mid_pos = rd_mid == 1;
    let rd_fin = rd_after(four_disparity(four), rd_mid_pos);

    if is_k28 {
        let y = decode_k_four_step(four, rd_mid_pos);
        if y < 0 {
            return DecEntry {
                sym: DEC_BAD4 | four as u16,
                rd_pos,
            };
        }
        if rd_fin < 0 {
            return DecEntry {
                sym: DEC_RDVIOL,
                rd_pos,
            };
        }
        return DecEntry {
            sym: DEC_CTRL | ((y as u16) << 5) | 28,
            rd_pos: rd_fin == 1,
        };
    }

    let x = data_x as u16;
    if (x == 23 || x == 27 || x == 29 || x == 30) && (four == A7_NEG || four == complement4(A7_NEG))
    {
        if rd_fin < 0 {
            return DecEntry {
                sym: DEC_RDVIOL,
                rd_pos,
            };
        }
        return DecEntry {
            sym: DEC_CTRL | (7 << 5) | x,
            rd_pos: rd_fin == 1,
        };
    }
    let y = decode_four_step(four);
    if y < 0 {
        return DecEntry {
            sym: DEC_BAD4 | four as u16,
            rd_pos,
        };
    }
    if rd_fin < 0 {
        return DecEntry {
            sym: DEC_RDVIOL,
            rd_pos,
        };
    }
    DecEntry {
        sym: DEC_DATA | ((y as u16) << 5) | x,
        rd_pos: rd_fin == 1,
    }
}

const fn build_enc_lut() -> [[EncEntry; 256]; 2] {
    let mut t = [[EncEntry {
        code: 0,
        rd_pos: false,
    }; 256]; 2];
    let mut rd = 0;
    while rd < 2 {
        let mut b = 0;
        while b < 256 {
            let (code, rd_pos) = encode_data_step(rd == 1, b as u8);
            t[rd][b] = EncEntry { code, rd_pos };
            b += 1;
        }
        rd += 1;
    }
    t
}

const fn build_dec_lut() -> [[DecEntry; 1024]; 2] {
    let mut t = [[DecEntry {
        sym: 0,
        rd_pos: false,
    }; 1024]; 2];
    let mut rd = 0;
    while rd < 2 {
        let mut c = 0;
        while c < 1024 {
            t[rd][c] = decode_step(rd == 1, c as u16);
            c += 1;
        }
        rd += 1;
    }
    t
}

/// Indexed `[RD][byte]`; RD− is row 0.
static ENC_LUT: [[EncEntry; 256]; 2] = build_enc_lut();

/// Indexed `[RD][code & 0x3FF]`; RD− is row 0.
static DEC_LUT: [[DecEntry; 1024]; 2] = build_dec_lut();

/// Stateful 8b/10b encoder tracking running disparity.
#[derive(Debug, Clone)]
pub struct Encoder {
    rd: Disparity,
}

impl Encoder {
    /// A fresh encoder starting at RD− (the standard initial state).
    pub fn new() -> Self {
        Encoder {
            rd: Disparity::Negative,
        }
    }

    /// Current running disparity.
    pub fn disparity(&self) -> Disparity {
        self.rd
    }

    /// Encodes a data octet (D.x.y).
    ///
    /// One lookup into a compile-time `(RD, byte)` table; see the module
    /// notes on the table-driven fast path.
    #[inline]
    pub fn encode_data(&mut self, byte: u8) -> Code10 {
        let e = &ENC_LUT[(self.rd == Disparity::Positive) as usize][byte as usize];
        self.rd = if e.rd_pos {
            Disparity::Positive
        } else {
            Disparity::Negative
        };
        Code10(e.code)
    }

    /// Encodes a control character (K.x.y).
    ///
    /// # Panics
    ///
    /// Panics if `byte` is not one of [`VALID_CONTROL`].
    pub fn encode_control(&mut self, byte: u8) -> Code10 {
        assert!(
            VALID_CONTROL.contains(&byte),
            "invalid control character {byte:#04x}"
        );
        let x = (byte & 0x1F) as usize;
        let y = (byte >> 5) as usize;

        let six_neg = if x == 28 {
            K28_SIX_NEG
        } else {
            FIVE_SIX_NEG[x]
        };
        let six = match (six_disparity(six_neg), self.rd) {
            (0, _) => six_neg,
            (_, Disparity::Negative) => six_neg,
            (_, Disparity::Positive) => complement6(six_neg),
        };
        let mut rd = self.rd;
        if six_disparity(six) != 0 {
            rd = rd.flip();
        }

        let four_neg = K_THREE_FOUR_NEG[y];
        let four = match (four_disparity(four_neg), rd) {
            (0, _) => match rd {
                // Control 3b/4b alternates even when balanced (by table).
                Disparity::Negative => four_neg,
                Disparity::Positive => complement4(four_neg),
            },
            (_, Disparity::Negative) => four_neg,
            (_, Disparity::Positive) => complement4(four_neg),
        };
        if four_disparity(four) != 0 {
            rd = rd.flip();
        }
        self.rd = rd;
        Code10(((six as u16) << 4) | four as u16)
    }

    /// Encodes a byte slice into a flat bit stream in transmission order.
    pub fn encode_bits(&mut self, bytes: &[u8]) -> Vec<bool> {
        let mut out = Vec::with_capacity(bytes.len() * 10);
        for &b in bytes {
            out.extend_from_slice(&self.encode_data(b).bits());
        }
        out
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// Stateful 8b/10b decoder tracking running disparity.
#[derive(Debug, Clone)]
pub struct Decoder {
    rd: Disparity,
}

impl Decoder {
    /// A fresh decoder starting at RD−.
    pub fn new() -> Self {
        Decoder {
            rd: Disparity::Negative,
        }
    }

    /// Current running disparity.
    pub fn disparity(&self) -> Disparity {
        self.rd
    }

    /// Decodes one 10-bit code group.
    ///
    /// One lookup into a compile-time `(RD, code)` table; see the module
    /// notes on the table-driven fast path. Errors leave the running
    /// disparity unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for invalid sub-blocks or running-disparity
    /// violations.
    #[inline]
    pub fn decode(&mut self, code: Code10) -> Result<Symbol, DecodeError> {
        let e = &DEC_LUT[(self.rd == Disparity::Positive) as usize][(code.0 & 0x3FF) as usize];
        // Error entries carry the incoming RD, so the unconditional store
        // preserves "errors never advance state".
        self.rd = if e.rd_pos {
            Disparity::Positive
        } else {
            Disparity::Negative
        };
        match e.sym & 0xF00 {
            DEC_DATA => Ok(Symbol::Data(e.sym as u8)),
            DEC_CTRL => Ok(Symbol::Control(e.sym as u8)),
            DEC_BAD6 => Err(DecodeError::InvalidSixBit(e.sym as u8)),
            DEC_BAD4 => Err(DecodeError::InvalidFourBit(e.sym as u8)),
            _ => Err(DecodeError::DisparityViolation),
        }
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

/// Longest run of identical bits in `bits`.
pub fn max_run_length(bits: &[bool]) -> usize {
    let mut best = 0;
    let mut cur = 0;
    let mut last = None;
    for &b in bits {
        if Some(b) == last {
            cur += 1;
        } else {
            cur = 1;
            last = Some(b);
        }
        best = best.max(cur);
    }
    best
}

#[cfg(test)]
// Binary literals below group as 6b_4b to mirror the abcdei/fghj split of
// the 8b/10b code, not as equal-width digit groups.
#[allow(clippy::unusual_byte_groupings)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        let mut enc = Encoder::new();
        // D.00.0 at RD-: 100111 0100 per the standard (D.x.0 flips after
        // the unbalanced 6b block makes RD positive).
        let c = enc.encode_data(0x00);
        assert_eq!(format!("{c}"), "1001110100");
        // After one unbalanced-then-rebalanced group RD is back to -.
        assert_eq!(enc.disparity(), Disparity::Negative);

        // IEEE 802.3 Table 36-1 code groups for each special case of the
        // encoder: (start RD, octet, code group, exit RD).
        let cases = [
            // D.7.0 at RD+: the balanced D.07 6b block still alternates.
            (Disparity::Positive, 0x07, "0001110100", Disparity::Negative),
            // D.3.3 at RD+: the balanced D.x.3 4b block alternates.
            (Disparity::Positive, 0x63, "1100010011", Disparity::Positive),
            // D.17.7 at RD-: A7 replaces P7, which would run five ones.
            (Disparity::Negative, 0xF1, "1000110111", Disparity::Positive),
            // D.11.7 at RD+: A7 replaces P7, which would run five zeros.
            (Disparity::Positive, 0xEB, "1101001000", Disparity::Negative),
        ];
        for (rd, byte, want, exit) in cases {
            let mut enc = Encoder { rd };
            let c = enc.encode_data(byte);
            assert_eq!(format!("{c}"), want, "{rd:?} D{byte:#04x}");
            assert_eq!(enc.disparity(), exit, "{rd:?} D{byte:#04x}");
            let mut dec = Decoder { rd };
            assert_eq!(dec.decode(c), Ok(Symbol::Data(byte)), "{rd:?} {want}");
            assert_eq!(dec.disparity(), exit, "{rd:?} {want}");
        }
    }

    #[test]
    fn k28_5_is_the_comma() {
        let mut enc = Encoder::new();
        let c = enc.encode_control(K28_5);
        // RD-: 001111 1010
        assert_eq!(format!("{c}"), "0011111010");
        let c2 = enc.encode_control(K28_5);
        // RD+: 110000 0101
        assert_eq!(format!("{c2}"), "1100000101");
    }

    #[test]
    fn round_trip_all_bytes_both_disparities() {
        for first in 0u16..=255 {
            let mut enc = Encoder::new();
            let mut dec = Decoder::new();
            // Prefix toggles disparity state; 0x0B (D.11.0) is unbalanced.
            {
                let &prefix = &0x0Bu8;
                let c = enc.encode_data(prefix);
                assert_eq!(dec.decode(c), Ok(Symbol::Data(prefix)));
            }
            let c = enc.encode_data(first as u8);
            assert_eq!(
                dec.decode(c),
                Ok(Symbol::Data(first as u8)),
                "byte {first:#x}"
            );
        }
    }

    #[test]
    fn round_trip_controls() {
        for &k in &VALID_CONTROL {
            let mut enc = Encoder::new();
            let mut dec = Decoder::new();
            let c = enc.encode_control(k);
            assert_eq!(dec.decode(c), Ok(Symbol::Control(k)), "K {k:#04x}");
            let c2 = enc.encode_control(k);
            assert_eq!(dec.decode(c2), Ok(Symbol::Control(k)), "K {k:#04x} RD+");
        }
    }

    #[test]
    fn disparity_stays_bounded_and_runs_short() {
        let mut enc = Encoder::new();
        let mut bits = Vec::new();
        let mut x: u32 = 0x1234_5678;
        for _ in 0..4096 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            bits.extend_from_slice(&enc.encode_data((x >> 24) as u8).bits());
        }
        // The defining property Baldur depends on: <= 5 consecutive equal
        // bits, so >6T of darkness unambiguously means end-of-packet.
        assert!(max_run_length(&bits) <= 5, "run {}", max_run_length(&bits));
        // Each 10b group is within +-1 cumulative disparity at boundaries.
        let mut rd = 0i32;
        for chunk in bits.chunks(10) {
            let ones = chunk.iter().filter(|&&b| b).count() as i32;
            rd += ones * 2 - 10;
            assert!(rd == 0 || rd.abs() == 2, "rd {rd}");
        }
    }

    #[test]
    fn invalid_code_rejected() {
        let mut dec = Decoder::new();
        // 000000 is not a valid 6b block.
        assert_eq!(
            dec.decode(Code10(0b000000_0100)),
            Err(DecodeError::InvalidSixBit(0))
        );
    }

    #[test]
    fn disparity_violation_detected() {
        let mut dec = Decoder::new();
        // D.00 RD+ form (011000 1011): at RD- its total disparity is -2,
        // which would push RD below -1.
        let rd_plus_d0 = Code10(0b011000_1011);
        assert_eq!(dec.decode(rd_plus_d0), Err(DecodeError::DisparityViolation));
    }

    #[test]
    #[should_panic(expected = "invalid control character")]
    fn bad_control_panics() {
        Encoder::new().encode_control(0x00);
    }

    #[test]
    fn max_run_length_works() {
        assert_eq!(max_run_length(&[]), 0);
        assert_eq!(max_run_length(&[true]), 1);
        assert_eq!(max_run_length(&[true, true, false, false, false, true]), 3);
    }
}
