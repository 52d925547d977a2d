//! Outputs of the program on fixed witness inputs, independent of
//! `--seed`, recorded from the workspace crates as they stood when the
//! benchmark was added. The per-run witnesses compare the measured path
//! with other paths through the same crates; these catch a change that
//! alters results in code both paths share. A mismatch counts in
//! `failed`; a change that is meant to alter results records new values
//! here and says why.

/// Seed of every witness input below: the episode stream of the episode
/// workloads, the figure seed of `fig2_quick`, the job seed of
/// `service_jobs`.
pub const WITNESS_SEED: u64 = 0x00C0_FFEE_D00D_5EED;

/// Total-benefit bits (`f64::to_bits`) of the first 16 `fixture_abm`
/// episodes from [`WITNESS_SEED`].
pub const FIXTURE_BENEFIT_BITS: [u64; 16] = [
    0x409d_f400_0000_0000,
    0x409c_f000_0000_0000,
    0x409e_8000_0000_0000,
    0x40a0_2600_0000_0000,
    0x409e_8c00_0000_0000,
    0x409e_5c00_0000_0000,
    0x409f_5000_0000_0000,
    0x409f_c800_0000_0000,
    0x409f_c000_0000_0000,
    0x409f_4400_0000_0000,
    0x409d_8400_0000_0000,
    0x409d_2c00_0000_0000,
    0x40a0_0e00_0000_0000,
    0x409c_1c00_0000_0000,
    0x409f_0400_0000_0000,
    0x409e_ac00_0000_0000,
];

/// Total-benefit bits of the first 8 `ba1e5_abm` episodes (one block of
/// lanes) from [`WITNESS_SEED`].
pub const BA1E5_BENEFIT_BITS: [u64; 8] = [
    0x40c1_4780_0000_0000,
    0x40c2_1600_0000_0000,
    0x40c0_b980_0000_0000,
    0x40c3_8200_0000_0000,
    0x40c3_3100_0000_0000,
    0x40c2_3080_0000_0000,
    0x40c2_c980_0000_0000,
    0x40c3_8900_0000_0000,
];

/// FNV-1a digests of the four Fig. 2 quick CSVs (Facebook, Slashdot,
/// Twitter, DBLP) with figure seed [`WITNESS_SEED`].
pub const FIG2_CSV_FNV: [u64; 4] = [
    0xeeb3_6c18_0925_b6a3,
    0x4824_4e18_5fa0_1018,
    0x1b89_d864_5c0d_e84e,
    0xab91_52c8_054a_3e37,
];

/// FNV-1a digest of the result CSV of a `JobSpec::default()` job with
/// seed [`WITNESS_SEED`], fetched from the daemon.
pub const SERVICE_CSV_FNV: u64 = 0x7659_d064_c20f_7475;

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
