//! DNA alphabet with IUPAC ambiguity codes.
//!
//! Sequences are stored as 4-bit state masks (bit 0 = A, 1 = C, 2 = G,
//! 3 = T): a DNA tip code is its mask. A tip's conditional likelihood
//! vector is 1.0 for every state the mask allows — exactly how RAxML treats
//! ambiguous characters.

use crate::alignment::Alphabet;

/// The DNA alphabet: a tip code is a [`StateMask`]'s bits, so each of the
/// 16 codes allows its own bits.
pub(crate) const NUCLEOTIDES: Alphabet = Alphabet {
    code: |c| StateMask::from_char(c).map(|m| m.0),
    letter: |code| StateMask(code).to_char(),
    states: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
};

/// Number of nucleotide states.
pub const STATES: usize = 4;

/// Index of each unambiguous nucleotide in likelihood vectors.
pub const A: usize = 0;
/// Cytosine.
pub const C: usize = 1;
/// Guanine.
pub const G: usize = 2;
/// Thymine.
pub const T: usize = 3;

/// A 4-bit nucleotide state mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateMask(pub u8);

impl StateMask {
    /// The fully-ambiguous mask (gap / `N`): any state.
    pub const ANY: StateMask = StateMask(0b1111);

    /// Parse one IUPAC nucleotide character (case-insensitive).
    /// Returns `None` for characters outside the DNA alphabet.
    pub fn from_char(c: char) -> Option<StateMask> {
        let m = match c.to_ascii_uppercase() {
            'A' => 0b0001,
            'C' => 0b0010,
            'G' => 0b0100,
            'T' | 'U' => 0b1000,
            'R' => 0b0101, // A or G (purine)
            'Y' => 0b1010, // C or T (pyrimidine)
            'S' => 0b0110, // G or C
            'W' => 0b1001, // A or T
            'K' => 0b1100, // G or T
            'M' => 0b0011, // A or C
            'B' => 0b1110, // not A
            'D' => 0b1101, // not C
            'H' => 0b1011, // not G
            'V' => 0b0111, // not T
            'N' | '-' | '?' | '.' | 'X' => 0b1111,
            _ => return None,
        };
        Some(StateMask(m))
    }

    /// Render the mask back to its canonical IUPAC character.
    pub fn to_char(self) -> char {
        match self.0 {
            0b0001 => 'A',
            0b0010 => 'C',
            0b0100 => 'G',
            0b1000 => 'T',
            0b0101 => 'R',
            0b1010 => 'Y',
            0b0110 => 'S',
            0b1001 => 'W',
            0b1100 => 'K',
            0b0011 => 'M',
            0b1110 => 'B',
            0b1101 => 'D',
            0b1011 => 'H',
            0b0111 => 'V',
            _ => 'N',
        }
    }

    /// Whether state index `s` is allowed by this mask.
    #[inline]
    pub fn allows(self, s: usize) -> bool {
        self.0 & (1 << s) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unambiguous_round_trip() {
        for (ch, s) in [('A', A), ('C', C), ('G', G), ('T', T)] {
            let m = StateMask::from_char(ch).unwrap();
            assert_eq!(m, StateMask(1 << s));
            assert_eq!(m.to_char(), ch);
            assert_eq!((NUCLEOTIDES.code)(ch), Some(1 << s));
            assert_eq!((NUCLEOTIDES.letter)(1 << s), ch);
        }
    }

    #[test]
    fn lowercase_and_uracil() {
        assert_eq!(StateMask::from_char('a'), StateMask::from_char('A'));
        assert_eq!(StateMask::from_char('u'), StateMask::from_char('T'));
    }

    #[test]
    fn ambiguity_codes_allow_the_right_states() {
        let r = StateMask::from_char('R').unwrap();
        assert!(r.allows(A) && r.allows(G) && !r.allows(C) && !r.allows(T));
        let y = StateMask::from_char('Y').unwrap();
        assert!(y.allows(C) && y.allows(T) && !y.allows(A) && !y.allows(G));
        let n = StateMask::from_char('N').unwrap();
        assert_eq!(n, StateMask::ANY);
        assert_eq!(NUCLEOTIDES.states[usize::from(n.0)], 0b1111);
        assert_eq!(StateMask::from_char('-').unwrap(), StateMask::ANY);
    }

    #[test]
    fn every_iupac_code_round_trips() {
        for ch in "ACGTRYSWKMBDHVN".chars() {
            let m = StateMask::from_char(ch).unwrap();
            assert_eq!(m.to_char(), ch, "round trip of {ch}");
        }
    }

    #[test]
    fn invalid_characters_rejected() {
        assert_eq!(StateMask::from_char('Z'), None);
        assert_eq!(StateMask::from_char('1'), None);
        assert_eq!(StateMask::from_char(' '), None);
    }
}
