//! Configuration naming scheme — Table 1 of the paper.
//!
//! | Abbreviation | Configuration |
//! |---|---|
//! | `mpi` | Use the MPI parcelport |
//! | `lci` | Use the LCI parcelport |
//! | `sr`  | Use the sendrecv protocol |
//! | `psr` | Use the putsendrecv protocol |
//! | `sy`  | Use synchronizer as the completion type |
//! | `cq`  | Use completion queue as the completion type |
//! | `pin` | Use a pinned dedicated progress thread |
//! | `mt`  | Use all worker threads to make progress |
//! | `i`   | Enable the send immediate optimization |
//!
//! Besides these, `tcp` names the original TCP parcelport and `mpi_orig`
//! the pre-improvement MPI one. [`PpConfig`] holds exactly the 22
//! configurations the names spell (16 LCI, four MPI, two TCP): the LCI
//! axes live in [`LciConfig`] inside [`Backend::Lci`], `orig` lives in
//! [`Backend::Mpi`], and only `i` applies to every backend.

use std::fmt;
use std::str::FromStr;

/// Which parcelport backend, with the settings only that backend has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The LCI parcelport and its three variant axes.
    Lci(LciConfig),
    /// The MPI parcelport: the improved one, or with `original` the
    /// pre-improvement one (fixed 512 B header, no transmission-chunk
    /// piggyback, tag-release protocol). It always uses send/recv and
    /// progresses from worker threads, as in HPX.
    Mpi {
        /// `mpi_orig`: the original parcelport, for the §3.1 ablation.
        original: bool,
    },
    /// The original TCP parcelport (kernel-socket byte streams).
    Tcp,
}

/// The LCI parcelport's variant axes (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LciConfig {
    /// Header protocol.
    pub protocol: Protocol,
    /// Completion mechanism for follow-up messages.
    pub completion: Completion,
    /// Who calls the communication progress function.
    pub progress: Progress,
}

/// How the header message travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// One-sided dynamic put for the header, send/recv for the rest.
    PutSendRecv,
    /// Two-sided send/recv for everything (posted wildcard header recv).
    SendRecv,
}

/// Completion mechanism for follow-up messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Completion queues (the baseline).
    Cq,
    /// Synchronizers + pending list polled round-robin.
    Sync,
}

/// Who calls the communication progress function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// A dedicated progress thread pinned to core 0 by the resource
    /// partitioner (`pin` / `rp`).
    Pin,
    /// All worker threads call progress when idle (`mt` / `worker`).
    Worker,
}

/// A full parcelport configuration in the paper's naming scheme: exactly
/// one value per Table-1 name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpConfig {
    /// Backend selection and its own settings.
    pub backend: Backend,
    /// The send-immediate optimization (bypass connection cache + parcel
    /// queue). Applies to every backend.
    pub send_immediate: bool,
}

impl PpConfig {
    /// The paper's default/best LCI configuration: `lci_psr_cq_pin_i`.
    pub fn lci_default() -> Self {
        PpConfig {
            backend: Backend::Lci(LciConfig {
                protocol: Protocol::PutSendRecv,
                completion: Completion::Cq,
                progress: Progress::Pin,
            }),
            send_immediate: true,
        }
    }

    /// `tcp` — the original kernel-socket parcelport.
    pub fn tcp() -> Self {
        PpConfig { backend: Backend::Tcp, send_immediate: false }
    }

    /// All eight LCI variants with send-immediate plus `lci_psr_cq_pin`
    /// (no `_i`) and the two MPI variants — the configurations plotted in
    /// the paper's figures.
    pub fn paper_set() -> Vec<PpConfig> {
        let mut v = vec![PpConfig { send_immediate: false, ..PpConfig::lci_default() }];
        for protocol in [Protocol::PutSendRecv, Protocol::SendRecv] {
            for completion in [Completion::Cq, Completion::Sync] {
                for progress in [Progress::Pin, Progress::Worker] {
                    let lci = LciConfig { protocol, completion, progress };
                    v.push(PpConfig { backend: Backend::Lci(lci), send_immediate: true });
                }
            }
        }
        for send_immediate in [false, true] {
            v.push(PpConfig { backend: Backend::Mpi { original: false }, send_immediate });
        }
        v
    }

    /// Whether this configuration wants the runtime to dedicate core 0 to
    /// progress.
    pub fn dedicated_progress(&self) -> bool {
        matches!(self.backend, Backend::Lci(LciConfig { progress: Progress::Pin, .. }))
    }
}

impl fmt::Display for PpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.backend {
            Backend::Tcp => f.write_str("tcp")?,
            Backend::Mpi { original } => f.write_str(if original { "mpi_orig" } else { "mpi" })?,
            Backend::Lci(lci) => write!(
                f,
                "lci_{}_{}_{}",
                match lci.protocol {
                    Protocol::PutSendRecv => "psr",
                    Protocol::SendRecv => "sr",
                },
                match lci.completion {
                    Completion::Cq => "cq",
                    Completion::Sync => "sy",
                },
                match lci.progress {
                    Progress::Pin => "pin",
                    Progress::Worker => "mt",
                }
            )?,
        }
        if self.send_immediate {
            f.write_str("_i")?;
        }
        Ok(())
    }
}

/// Error from parsing a configuration name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad parcelport config: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FromStr for PpConfig {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, ParseError> {
        let bad = || ParseError(s.into());
        let mut parts: Vec<&str> = s.split('_').collect();
        let send_immediate = parts.last() == Some(&"i");
        if send_immediate {
            parts.pop();
        }
        let backend = match parts.as_slice() {
            ["tcp"] => Backend::Tcp,
            ["mpi"] => Backend::Mpi { original: false },
            ["mpi", "orig"] => Backend::Mpi { original: true },
            ["lci", proto, comp, prog] => Backend::Lci(LciConfig {
                protocol: match *proto {
                    "psr" => Protocol::PutSendRecv,
                    "sr" => Protocol::SendRecv,
                    _ => return Err(bad()),
                },
                completion: match *comp {
                    "cq" => Completion::Cq,
                    "sy" => Completion::Sync,
                    _ => return Err(bad()),
                },
                progress: match *prog {
                    "pin" | "rp" => Progress::Pin,
                    "mt" | "worker" => Progress::Worker,
                    _ => return Err(bad()),
                },
            }),
            _ => return Err(bad()),
        };
        Ok(PpConfig { backend, send_immediate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Table-1 name: 16 LCI names, four MPI and two TCP ones. Each
    /// parses and prints back identically, and the 22 values are
    /// pairwise distinct.
    #[test]
    fn roundtrip_names() {
        let mut names = Vec::new();
        for proto in ["psr", "sr"] {
            for comp in ["cq", "sy"] {
                for prog in ["pin", "mt"] {
                    names.push(format!("lci_{proto}_{comp}_{prog}"));
                }
            }
        }
        names.extend(["mpi", "mpi_orig", "tcp"].map(String::from));
        let with_i: Vec<String> = names.iter().map(|n| format!("{n}_i")).collect();
        names.extend(with_i);
        assert_eq!(names.len(), 22);
        let cfgs: Vec<PpConfig> = names.iter().map(|n| n.parse().unwrap()).collect();
        for (name, cfg) in names.iter().zip(&cfgs) {
            assert_eq!(&cfg.to_string(), name, "roundtrip of {name}");
        }
        for (i, a) in cfgs.iter().enumerate() {
            for b in &cfgs[i + 1..] {
                assert_ne!(a, b, "{a} and {b} are one value");
            }
        }
    }

    #[test]
    fn rp_is_an_alias_for_pin() {
        let a: PpConfig = "lci_psr_cq_rp_i".parse().unwrap();
        let b: PpConfig = "lci_psr_cq_pin_i".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_the_paper_baseline() {
        let d = PpConfig::lci_default();
        assert_eq!(d.to_string(), "lci_psr_cq_pin_i");
        assert!(d.dedicated_progress());
    }

    #[test]
    fn mpi_never_dedicates_progress() {
        for name in ["mpi", "mpi_i", "mpi_orig", "mpi_orig_i"] {
            assert!(!name.parse::<PpConfig>().unwrap().dedicated_progress(), "{name}");
        }
    }

    #[test]
    fn paper_set_is_complete_and_unique() {
        let set = PpConfig::paper_set();
        assert_eq!(set.len(), 11);
        let names: std::collections::HashSet<String> = set.iter().map(|c| c.to_string()).collect();
        assert_eq!(names.len(), 11);
        assert!(names.contains("lci_psr_cq_pin"));
        assert!(names.contains("mpi"));
        assert!(names.contains("mpi_i"));
        assert!(names.contains("lci_sr_sy_mt_i"));
    }

    #[test]
    fn garbage_rejected() {
        assert!("udp".parse::<PpConfig>().is_err());
        assert!("lci_xx_cq_pin".parse::<PpConfig>().is_err());
        assert!("lci_psr".parse::<PpConfig>().is_err());
        // Names that mix backends.
        for mixed in ["mpi_psr", "tcp_orig", "lci_psr_cq_pin_orig"] {
            assert!(mixed.parse::<PpConfig>().is_err(), "{mixed} parsed");
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let cfg: PpConfig = "tcp".parse().unwrap();
        assert_eq!(cfg.backend, Backend::Tcp);
        assert_eq!(cfg.to_string(), "tcp");
        let cfg: PpConfig = "tcp_i".parse().unwrap();
        assert!(cfg.send_immediate);
        assert_eq!(cfg.to_string(), "tcp_i");
        assert!(!cfg.dedicated_progress());
    }

    #[test]
    fn original_mpi_roundtrip() {
        let cfg = PpConfig { backend: Backend::Mpi { original: true }, send_immediate: false };
        assert_eq!(cfg.to_string(), "mpi_orig");
        let parsed: PpConfig = "mpi_orig".parse().unwrap();
        assert_eq!(parsed, cfg);
    }
}
