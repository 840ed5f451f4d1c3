//! Magic sequences for the taint-aware CFI scheme (Section 4).
//!
//! Two 59-bit prefixes, `MCall` and `MRet`, are chosen post-link so that they
//! appear nowhere else in the binary.  Every procedure entry is preceded by a
//! 64-bit word `MCall ++ 5 taint bits` (the taints of the four argument
//! registers plus the return register) and every valid return site by
//! `MRet ++ 1 taint bit ++ 4 zero bits`.

use confllvm_minic::Taint;
use rand::Rng;

/// Number of low bits reserved for taints in every magic word.
pub const TAINT_FIELD_BITS: u32 = 5;
/// Width of the random prefix.
pub const PREFIX_BITS: u32 = 59;

/// The pair of magic prefixes chosen for one binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagicPrefixes {
    /// 59-bit prefix marking procedure entries.
    pub call_prefix: u64,
    /// 59-bit prefix marking valid return sites.
    pub ret_prefix: u64,
}

impl MagicPrefixes {
    /// Fixed prefixes used in unit tests (never searched for uniqueness).
    pub fn test_defaults() -> Self {
        MagicPrefixes {
            call_prefix: 0x005c_a1ab_1ec0_ffee & PREFIX_MASK,
            ret_prefix: 0x00de_cafb_adf0_0d01 & PREFIX_MASK,
        }
    }

    /// Build the call magic word for a function signature: taints of the four
    /// argument registers and the return register (Section 4's example uses
    /// `#M_call#11111#` for `add`).
    pub fn call_word(&self, arg_taints: [Taint; 4], ret_taint: Taint) -> u64 {
        let mut bits = 0u64;
        for (i, t) in arg_taints.iter().enumerate() {
            bits |= t.bit() << i;
        }
        bits |= ret_taint.bit() << 4;
        (self.call_prefix << TAINT_FIELD_BITS) | bits
    }

    /// Build the return-site magic word: one taint bit for the return value
    /// register, padded with four zero bits.
    pub fn ret_word(&self, ret_taint: Taint) -> u64 {
        (self.ret_prefix << TAINT_FIELD_BITS) | ret_taint.bit()
    }

    /// Does this word carry the call prefix?
    pub fn is_call_word(&self, word: u64) -> bool {
        (word >> TAINT_FIELD_BITS) == self.call_prefix
    }

    /// Does this word carry the return-site prefix?
    pub fn is_ret_word(&self, word: u64) -> bool {
        (word >> TAINT_FIELD_BITS) == self.ret_prefix
    }

    /// Decode the argument/return taints from a call magic word.
    pub fn decode_call(&self, word: u64) -> Option<([Taint; 4], Taint)> {
        if !self.is_call_word(word) {
            return None;
        }
        let bits = word & ((1 << TAINT_FIELD_BITS) - 1);
        let mut args = [Taint::Public; 4];
        for (i, a) in args.iter_mut().enumerate() {
            *a = Taint::from_bit(bits >> i);
        }
        Some((args, Taint::from_bit(bits >> 4)))
    }

    /// Decode the return-value taint from a return-site magic word.
    pub fn decode_ret(&self, word: u64) -> Option<Taint> {
        if !self.is_ret_word(word) {
            return None;
        }
        Some(Taint::from_bit(word & 1))
    }
}

const PREFIX_MASK: u64 = (1u64 << PREFIX_BITS) - 1;

/// Search for a pair of 59-bit prefixes that do not occur in any word of the
/// given code image (Section 6: "we find these sequences by generating random
/// bit sequences and checking for uniqueness").  `words` should contain every
/// code word of U *and* T that will be loaded together.
pub fn find_unique_prefixes<R: Rng>(rng: &mut R, words: &[u64]) -> MagicPrefixes {
    let call_prefix = find_one_prefix(rng, words, None);
    let ret_prefix = find_one_prefix(rng, words, Some(call_prefix));
    MagicPrefixes {
        call_prefix,
        ret_prefix,
    }
}

fn find_one_prefix<R: Rng>(rng: &mut R, words: &[u64], avoid: Option<u64>) -> u64 {
    loop {
        let candidate: u64 = rng.gen::<u64>() & PREFIX_MASK;
        if candidate == 0 || Some(candidate) == avoid {
            continue;
        }
        let collides = words.iter().any(|w| (w >> TAINT_FIELD_BITS) == candidate);
        if !collides {
            return candidate;
        }
    }
}

/// Pack four argument taints from a possibly shorter list (missing/unused
/// argument registers are conservatively treated as private, Section 4).
pub fn pad_arg_taints(taints: &[Taint]) -> [Taint; 4] {
    let mut out = [Taint::Private; 4];
    for (i, t) in taints.iter().take(4).enumerate() {
        out[i] = *t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn call_word_roundtrip() {
        let p = MagicPrefixes::test_defaults();
        let args = [
            Taint::Public,
            Taint::Private,
            Taint::Private,
            Taint::Private,
        ];
        let w = p.call_word(args, Taint::Private);
        assert!(p.is_call_word(w));
        assert!(!p.is_ret_word(w));
        let (decoded_args, ret) = p.decode_call(w).unwrap();
        assert_eq!(decoded_args, args);
        assert_eq!(ret, Taint::Private);
    }

    #[test]
    fn paper_example_encodings() {
        // `add` in Section 4 has taint bits 11111; `incr` has 01111.
        let p = MagicPrefixes::test_defaults();
        let all_private = p.call_word([Taint::Private; 4], Taint::Private);
        assert_eq!(all_private & 0x1f, 0b11111);
        let incr = p.call_word(
            [
                Taint::Public,
                Taint::Private,
                Taint::Private,
                Taint::Private,
            ],
            Taint::Private,
        );
        assert_eq!(incr & 0x1f, 0b11110);
        // The return site after the call to add has bits 00001 (private
        // return value, 4 bits of padding).
        let ret = p.ret_word(Taint::Private);
        assert_eq!(ret & 0x1f, 0b00001);
    }

    #[test]
    fn ret_word_roundtrip() {
        let p = MagicPrefixes::test_defaults();
        let w = p.ret_word(Taint::Public);
        assert_eq!(p.decode_ret(w), Some(Taint::Public));
        let w = p.ret_word(Taint::Private);
        assert_eq!(p.decode_ret(w), Some(Taint::Private));
    }

    #[test]
    fn unique_prefix_search_avoids_collisions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Construct a word list that "contains" some candidate prefixes.
        let mut words = vec![0u64, 42, 0xffff_ffff_ffff_ffff];
        for i in 0..1000u64 {
            words.push(i << TAINT_FIELD_BITS);
        }
        let p = find_unique_prefixes(&mut rng, &words);
        assert!(p.call_prefix != p.ret_prefix);
        for w in &words {
            assert_ne!(w >> TAINT_FIELD_BITS, p.call_prefix);
            assert_ne!(w >> TAINT_FIELD_BITS, p.ret_prefix);
        }
    }

    #[test]
    fn pad_arg_taints_defaults_private() {
        let padded = pad_arg_taints(&[Taint::Public]);
        assert_eq!(padded[0], Taint::Public);
        assert_eq!(padded[1], Taint::Private);
        assert_eq!(padded[3], Taint::Private);
    }

    #[test]
    fn prefixes_fit_in_59_bits() {
        let p = MagicPrefixes::test_defaults();
        assert!(p.call_prefix < (1 << PREFIX_BITS));
        assert!(p.ret_prefix < (1 << PREFIX_BITS));
        let w = p.call_word([Taint::Private; 4], Taint::Private);
        assert_eq!(w >> TAINT_FIELD_BITS, p.call_prefix);
    }
}
