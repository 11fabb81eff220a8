//! The clock-less, length-based routing-bit code (paper Sec. IV-B, Fig. 3).
//!
//! Each routing bit occupies a fixed 3T slot: logic `0` is light for 2T
//! followed by 1T of darkness; logic `1` is light for 1T followed by 2T of
//! darkness. Because every slot is exactly 3T, a receiver that knows only T
//! (not the transmitter's clock phase) can decode by *measuring pulse
//! lengths* — which is precisely what the TL switch's line activity detector
//! does by delaying the input 1.3T and sampling at the falling edge.

use serde::{Deserialize, Serialize};

use crate::waveform::{Fs, Waveform, BIT_PERIOD_FS};

/// Parameters of the length-based code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LengthCode {
    /// The bit period T in femtoseconds.
    pub bit_period: Fs,
}

impl LengthCode {
    /// The paper's 60 Gbps code (T ≈ 16.67 ps).
    pub fn paper() -> Self {
        LengthCode {
            bit_period: BIT_PERIOD_FS,
        }
    }

    /// Slot length: 3T per routing bit.
    pub fn slot(&self) -> Fs {
        3 * self.bit_period
    }

    /// Light duration for a bit: 2T for `0`, 1T for `1`.
    pub fn pulse_len(&self, bit: bool) -> Fs {
        if bit {
            self.bit_period
        } else {
            2 * self.bit_period
        }
    }

    /// Encodes `bits` starting at `start`, returning the pulse list.
    pub fn encode_pulses(&self, bits: &[bool], start: Fs) -> Vec<(Fs, Fs)> {
        let mut pulses = Vec::with_capacity(bits.len());
        let mut t = start;
        for &bit in bits {
            pulses.push((t, t + self.pulse_len(bit)));
            t += self.slot();
        }
        pulses
    }

    /// Encodes `bits` into a waveform starting at `start`.
    pub fn encode(&self, bits: &[bool], start: Fs) -> Waveform {
        Waveform::from_pulses(self.encode_pulses(bits, start))
    }

    /// Total duration of `n` encoded routing bits (n slots).
    pub fn duration(&self, n: usize) -> Fs {
        n as Fs * self.slot()
    }

    /// Decodes the routing bits at the *front* of `wave`, stopping at the
    /// first pulse that does not look like a routing bit (within
    /// `tolerance` femtoseconds of 1T or 2T of light).
    ///
    /// Returns the decoded bits and the slot-aligned instant just past the
    /// last decoded bit (where the remaining payload begins).
    pub fn decode_prefix(&self, wave: &Waveform, tolerance: Fs) -> (Vec<bool>, Fs) {
        let mut bits = Vec::new();
        let mut expected_start = match wave.transitions().first() {
            Some(&t) => t,
            None => return (bits, 0),
        };
        for (s, e) in wave.pulses() {
            if e == Fs::MAX {
                break;
            }
            // Must begin on the expected slot boundary (loose check).
            if s.abs_diff(expected_start) > tolerance {
                break;
            }
            let len = e - s;
            if len.abs_diff(self.pulse_len(true)) <= tolerance {
                bits.push(true);
            } else if len.abs_diff(self.pulse_len(false)) <= tolerance {
                bits.push(false);
            } else {
                break;
            }
            expected_start += self.slot();
        }
        (bits, expected_start)
    }

    /// Decodes exactly the first routing bit the way the switch does
    /// (paper Fig. 3): delay the signal by `theta` (1.3T in the design) and
    /// sample the delayed signal at the falling edge of the first pulse.
    /// A high sample means the pulse was 2T long, i.e. logic `0`.
    ///
    /// Returns `None` for a dark waveform.
    pub fn decode_first_bit_by_delay(&self, wave: &Waveform, theta: Fs) -> Option<bool> {
        let first_fall = *wave.transitions().get(1)?;
        let delayed = wave.delayed(theta);
        let sampled_high = delayed.level_at(first_fall);
        // High at the fall => length >= theta => 2T pulse => logic 0.
        Some(!sampled_high)
    }
}

impl Default for LengthCode {
    fn default() -> Self {
        LengthCode::paper()
    }
}

/// Strips the first routing bit slot from the front of a routing-bit
/// waveform (the mask-off operation performed by AND0/AND1 in the switch
/// fabric): everything before `slot_end` is forced dark.
pub fn mask_front(wave: &Waveform, slot_end: Fs) -> Waveform {
    let mut pulses = Vec::new();
    for (s, e) in wave.pulses() {
        if e == Fs::MAX {
            if s >= slot_end {
                pulses.push((s, e));
            }
            continue;
        }
        if e <= slot_end {
            continue;
        }
        pulses.push((s.max(slot_end), e));
    }
    // Re-validate via from_transitions to keep invariants (open pulse end
    // sentinel is not a real transition).
    let mut transitions = Vec::with_capacity(pulses.len() * 2);
    for (s, e) in pulses {
        transitions.push(s);
        if e != Fs::MAX {
            transitions.push(e);
        }
    }
    Waveform::from_transitions(transitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Fs = BIT_PERIOD_FS;

    #[test]
    fn zero_is_2t_one_is_1t() {
        let c = LengthCode::paper();
        let w = c.encode(&[false, true], 0);
        let pulses: Vec<_> = w.pulses().collect();
        assert_eq!(pulses, vec![(0, 2 * T), (3 * T, 4 * T)]);
    }

    #[test]
    fn slots_are_3t() {
        let c = LengthCode::paper();
        assert_eq!(c.slot(), 3 * T);
        assert_eq!(c.duration(8), 24 * T);
    }

    #[test]
    fn decode_round_trip() {
        let c = LengthCode::paper();
        let bits = vec![true, false, false, true, true, false, true, false];
        let w = c.encode(&bits, 5 * T);
        let (decoded, next) = c.decode_prefix(&w, T / 10);
        assert_eq!(decoded, bits);
        assert_eq!(next, 5 * T + c.duration(8));
    }

    #[test]
    fn decode_stops_at_payload() {
        let c = LengthCode::paper();
        let mut pulses = c.encode_pulses(&[true, false], 0);
        // Payload pulse of length 4T does not match either symbol.
        pulses.push((c.duration(2), c.duration(2) + 4 * T));
        let w = Waveform::from_pulses(pulses);
        let (decoded, next) = c.decode_prefix(&w, T / 10);
        assert_eq!(decoded, vec![true, false]);
        assert_eq!(next, c.duration(2));
    }

    #[test]
    fn first_bit_by_delay_matches_direct_decode() {
        let c = LengthCode::paper();
        let theta = 13 * T / 10; // 1.3T as in the switch design
        for bits in [[false, true], [true, false], [true, true], [false, false]] {
            let w = c.encode(&bits, 7 * T);
            assert_eq!(
                c.decode_first_bit_by_delay(&w, theta),
                Some(bits[0]),
                "bits {bits:?}"
            );
        }
        assert_eq!(c.decode_first_bit_by_delay(&Waveform::dark(), theta), None);
    }

    #[test]
    fn first_bit_tolerates_moderate_jitter() {
        // The bare delay-and-sample mechanism thresholds pulse length at
        // theta = 1.3T, so a "1" tolerates < 0.3T of stretch and a "0"
        // tolerates < 0.7T of shrink. (The paper's symmetric 0.42T margin
        // additionally involves the detector window delta = 0.4T, which is
        // modelled in the full switch circuit in `baldur-tl`.)
        let c = LengthCode::paper();
        let theta = 13 * T / 10;
        // A "1" stretched by 0.25T is still < 1.3T: decoded as 1.
        let w = Waveform::from_pulses([(0, T + T / 4)]);
        assert_eq!(c.decode_first_bit_by_delay(&w, theta), Some(true));
        // A "0" shrunk by 0.42T is still > 1.3T: decoded as 0.
        let w = Waveform::from_pulses([(0, 2 * T - 42 * T / 100)]);
        assert_eq!(c.decode_first_bit_by_delay(&w, theta), Some(false));
        // Past the threshold the decision flips, as expected.
        let w = Waveform::from_pulses([(0, T + T / 2)]);
        assert_eq!(c.decode_first_bit_by_delay(&w, theta), Some(false));
    }

    #[test]
    fn mask_front_removes_first_slot() {
        let c = LengthCode::paper();
        let w = c.encode(&[false, true, false], 0);
        let masked = mask_front(&w, c.slot());
        let (decoded, _) = c.decode_prefix(&masked, T / 10);
        assert_eq!(decoded, vec![true, false]);
    }

    #[test]
    fn mask_front_truncates_partial_pulse() {
        // A pulse straddling the cut is clipped, not deleted.
        let w = Waveform::from_pulses([(0, 10), (20, 40)]);
        let masked = mask_front(&w, 30);
        assert_eq!(masked.pulses().collect::<Vec<_>>(), vec![(30, 40)]);
    }
}
