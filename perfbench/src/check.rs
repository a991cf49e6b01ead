//! Output check: every op's output is hashed and compared with the digest
//! recorded for the same workload, input seed and op in
//! `perfbench/reference/<workload>.ref`. A missing or different digest
//! counts as a failed op.
//!
//! Reference lines read `<seed hex> <op key> <digest hex>`. `--record`
//! rewrites a workload's file from the program as it stands.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Compares op digests against the recorded reference (or records them).
pub struct Checker {
    path: PathBuf,
    seed: u64,
    recording: bool,
    reference: BTreeMap<(u64, String), u64>,
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Checker {
    /// Loads the reference of `workload`. In recording mode the existing
    /// file is ignored and replaced by [`Checker::save`].
    pub fn open(workload: &str, recording: bool) -> Result<Checker, String> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{workload}.ref"));
        let mut reference = BTreeMap::new();
        if !recording {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            for (n, line) in text.lines().enumerate() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let parsed = match fields[..] {
                    [seed, op, digest] => u64::from_str_radix(seed, 16)
                        .ok()
                        .zip(u64::from_str_radix(digest, 16).ok())
                        .map(|(s, d)| ((s, op.to_owned()), d)),
                    _ => None,
                };
                let (key, digest) = parsed
                    .ok_or_else(|| format!("{}:{}: malformed line", path.display(), n + 1))?;
                reference.insert(key, digest);
            }
        }
        Ok(Checker {
            path,
            seed: 0,
            recording,
            reference,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        })
    }

    /// Selects the input seed the following ops ran with.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Checks `weight` ops whose joint output hashes to `digest`.
    pub fn check(&mut self, op: &str, digest: &Digest, weight: u64) {
        self.attempted += weight;
        let key = (self.seed, op.to_owned());
        if self.recording {
            self.reference.insert(key, digest.value());
        } else if self.reference.get(&key) != Some(&digest.value()) {
            self.failed += weight;
            if self.mismatches.len() < 8 {
                self.mismatches
                    .push(format!("seed {:x} op {op}", self.seed));
            }
        }
    }

    /// Counts `weight` ops that failed before producing an output.
    pub fn error(&mut self, op: &str, message: &str, weight: u64) {
        self.attempted += weight;
        self.failed += weight;
        eprintln!("op {op} failed: {message}");
        if self.mismatches.len() < 8 {
            self.mismatches
                .push(format!("seed {:x} op {op}: {message}", self.seed));
        }
    }

    /// The first few mismatching ops, for the error report.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Writes the recorded digests (recording mode).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let mut text = String::new();
        for ((seed, op), digest) in &self.reference {
            text.push_str(&format!("{seed:x} {op} {digest:016x}\n"));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, text)?;
        Ok(self.path.clone())
    }
}
