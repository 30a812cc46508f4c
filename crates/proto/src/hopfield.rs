//! Hop fields: the per-AS units of Packet-Carried Forwarding State.
//!
//! Paper §2.3: "The path segments contain compact hop-fields, that encode
//! information about which interfaces may be used to enter and leave an AS.
//! The hop-fields are cryptographically protected, preventing path
//! alteration." Routers verify the MAC and forward — no per-path state.
//!
//! The wire layout mirrors deployed SCION: 1 byte flags, 1 byte expiry
//! offset, 2×2 bytes interface ids, 6 bytes MAC = 12 bytes.

use serde::{Deserialize, Serialize};

use scion_crypto::hash::Lane0;
use scion_types::{IfId, SimTime};

/// A 6-byte hop-field MAC (truncated, as in deployed SCION).
pub type HopMac = [u8; 6];

/// The hash state every MAC starts from, absorbed at compile time.
const MAC_PREFIX: Lane0 = Lane0::new().update(b"hopfield-mac");

/// One hop field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopField {
    /// Interface through which the beacon entered the AS
    /// ([`IfId::NONE`] at the origin of a segment).
    pub ingress: IfId,
    /// Interface through which it left ([`IfId::NONE`] at a segment's last
    /// hop until the segment is extended further).
    pub egress: IfId,
    /// Absolute expiry of this hop's forwarding authorization.
    pub expiry: SimTime,
    /// Truncated MAC binding the fields to the AS's forwarding key.
    pub mac: HopMac,
}

impl HopField {
    /// Wire size: flags(1) + exp(1) + ingress(2) + egress(2) + mac(6).
    pub const WIRE_SIZE: usize = 12;

    /// Creates a hop field MAC'd with `forwarding_key` (an AS-local secret;
    /// in deployed SCION this is the AS's hop-field key, never shared).
    pub fn new(ingress: IfId, egress: IfId, expiry: SimTime, forwarding_key: u64) -> HopField {
        let mac = Self::compute_mac(ingress, egress, expiry, forwarding_key);
        HopField {
            ingress,
            egress,
            expiry,
            mac,
        }
    }

    /// The first six bytes of the hash of `"hopfield-mac"`, key (8 bytes),
    /// ingress (2), egress (2) and expiry (8), each absorbed on its own. Six
    /// bytes come from lane 0 alone ([`Lane0`]), so a MAC is six dependent
    /// mixing rounds — one per field, two to squeeze — which is what the
    /// pinned definition requires and all a router pays to check a hop.
    fn compute_mac(ingress: IfId, egress: IfId, expiry: SimTime, forwarding_key: u64) -> HopMac {
        let block = MAC_PREFIX
            .absorb(forwarding_key, 8)
            .absorb(u64::from(ingress.0), 2)
            .absorb(u64::from(egress.0), 2)
            .absorb(expiry.as_micros(), 8)
            .first_block();
        let mut mac = [0u8; 6];
        mac.copy_from_slice(&block[..6]);
        mac
    }

    /// Verifies the MAC under `forwarding_key` — what a border router does
    /// per packet before forwarding.
    pub fn verify(&self, forwarding_key: u64) -> bool {
        Self::compute_mac(self.ingress, self.egress, self.expiry, forwarding_key) == self.mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scion_types::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn mac_verifies_with_right_key() {
        let hf = HopField::new(IfId(1), IfId(2), t(100), 0xabc);
        assert!(hf.verify(0xabc));
    }

    #[test]
    fn mac_fails_with_wrong_key() {
        let hf = HopField::new(IfId(1), IfId(2), t(100), 0xabc);
        assert!(!hf.verify(0xabd));
    }

    #[test]
    fn mac_binds_all_fields() {
        let hf = HopField::new(IfId(1), IfId(2), t(100), 0xabc);
        let mut altered = hf;
        altered.egress = IfId(3);
        assert!(
            !altered.verify(0xabc),
            "interface alteration must be caught"
        );
        let mut altered = hf;
        altered.expiry = t(200);
        assert!(!altered.verify(0xabc), "expiry alteration must be caught");
    }

    #[test]
    fn wire_size_is_12() {
        assert_eq!(HopField::WIRE_SIZE, 12);
    }

    /// The parent commit's `compute_mac`, verbatim: six `update` calls
    /// through all four lanes of the generic hasher. Kept as the oracle for
    /// the one-lane kernel.
    mod reference {
        use super::super::HopMac;
        use scion_crypto::hash::Hasher;
        use scion_types::{IfId, SimTime};

        pub fn compute_mac(
            ingress: IfId,
            egress: IfId,
            expiry: SimTime,
            forwarding_key: u64,
        ) -> HopMac {
            let mut h = Hasher::new();
            h.update(b"hopfield-mac");
            h.update_u64(forwarding_key);
            h.update(&ingress.0.to_le_bytes());
            h.update(&egress.0.to_le_bytes());
            h.update_u64(expiry.as_micros());
            let mut out = [0u8; 6];
            h.finalize_into(&mut out);
            out
        }
    }

    /// `(ingress, egress, expiry µs, key) → MAC`, printed by the parent
    /// commit's `HopField::new` in a scratch clone — never regenerate it
    /// from the code under test. Pins both implementations to the wire, not
    /// only to each other.
    const GOLDEN_MACS: [(u16, u16, u64, u64, HopMac); 12] = [
        (0, 0, 0, 0, [81, 77, 165, 112, 0, 115]),
        (0, 1, 100_000_000, 0xabc, [195, 45, 224, 4, 151, 66]),
        (1, 2, 100_000_000, 0xabc, [132, 99, 153, 151, 79, 12]),
        (2, 1, 100_000_000, 0xabc, [125, 216, 56, 87, 24, 128]),
        (
            3,
            0,
            21_600_000_000,
            0x0001_0000_5c10_4f0c,
            [13, 54, 162, 146, 241, 118],
        ),
        (
            u16::MAX,
            u16::MAX,
            u64::MAX,
            u64::MAX,
            [75, 98, 165, 194, 213, 130],
        ),
        (0, u16::MAX, 0, u64::MAX, [255, 110, 80, 84, 184, 170]),
        (u16::MAX, 0, u64::MAX, 0, [71, 168, 91, 137, 3, 31]),
        (7, 7, 1, 1, [135, 206, 92, 71, 122, 39]),
        (
            258,
            513,
            0x0102_0304_0506_0708,
            0x1112_1314_1516_1718,
            [63, 233, 186, 217, 155, 233],
        ),
        (1, 2, 100_000_001, 0xabc, [229, 103, 12, 168, 179, 97]),
        (1, 2, 100_000_000, 0xabd, [133, 168, 122, 16, 102, 197]),
    ];

    #[test]
    fn mac_bytes_match_the_golden_table() {
        for (ingress, egress, expiry, key, mac) in GOLDEN_MACS {
            let (ingress, egress) = (IfId(ingress), IfId(egress));
            let expiry = SimTime::from_micros(expiry);
            let hf = HopField::new(ingress, egress, expiry, key);
            assert_eq!(hf.mac, mac, "{ingress} {egress} {expiry:?} {key:#x}");
            assert_eq!(reference::compute_mac(ingress, egress, expiry, key), mac);
            assert!(hf.verify(key));
        }
    }

    #[test]
    fn mac_matches_the_reference_at_every_extreme() {
        let ifids = [IfId::NONE, IfId(1), IfId(u16::MAX)];
        let words = [0, 1, u64::MAX];
        for ingress in ifids {
            for egress in ifids {
                for expiry in words.map(SimTime::from_micros) {
                    for key in words {
                        assert_eq!(
                            HopField::new(ingress, egress, expiry, key).mac,
                            reference::compute_mac(ingress, egress, expiry, key)
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_mac_matches_the_reference(
            ingress in any::<u16>(),
            egress in any::<u16>(),
            expiry in any::<u64>(),
            key in any::<u64>(),
        ) {
            let (ingress, egress) = (IfId(ingress), IfId(egress));
            let expiry = SimTime::from_micros(expiry);
            let hf = HopField::new(ingress, egress, expiry, key);
            prop_assert_eq!(hf.mac, reference::compute_mac(ingress, egress, expiry, key));
            prop_assert!(hf.verify(key));
        }
    }
}
