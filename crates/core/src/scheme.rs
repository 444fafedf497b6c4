//! Optimization schemes (paper Table 3).

use std::fmt;

/// Which of the four optimization techniques are enabled for a query.
///
/// The paper evaluates the baseline, each technique alone, and two
/// combinations, all available as constants:
///
/// | Constant | SRR | DIP | DEP | IWP |
/// |----------|-----|-----|-----|-----|
/// | [`Scheme::NWC`]      | – | – | – | – |
/// | [`Scheme::SRR`]      | ✓ | – | – | – |
/// | [`Scheme::DIP`]      | – | ✓ | – | – |
/// | [`Scheme::DEP`]      | – | – | ✓ | – |
/// | [`Scheme::IWP`]      | – | – | – | ✓ |
/// | [`Scheme::NWC_PLUS`] | ✓ | ✓ | – | – |
/// | [`Scheme::NWC_STAR`] | ✓ | ✓ | ✓ | ✓ |
///
/// `NWC+` enables the two techniques the paper builds no structure for;
/// `NWC*` enables everything.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Scheme {
    /// Search region reduction (§3.3.1): shrink/skip per-object search
    /// regions using `dist_best`.
    pub srr: bool,
    /// Distance-based pruning (§3.3.2): prune index nodes whose every
    /// generated window is farther than `dist_best`.
    pub dip: bool,
    /// Density-based pruning (§3.3.3): prune nodes and cancel window
    /// queries whose density-grid upper bound is below `n`.
    pub dep: bool,
    /// Incremental window query processing (§3.3.4), with the window
    /// queries shared per leaf: the first object of a leaf that needs
    /// its search region answered fetches the leaf's neighbourhood —
    /// every object in the DEP extension of the leaf MBR, which contains
    /// the search region of every object of the leaf — once per query,
    /// from the root, through a per-query memo of the nodes the search
    /// already read (which cost no second access). Every object of the
    /// leaf then takes its search region from that list. The paper's
    /// backward and overlapping pointers are not built (DESIGN.md §4m).
    pub iwp: bool,
}

impl Scheme {
    /// The unoptimized baseline.
    pub const NWC: Scheme = Scheme {
        srr: false,
        dip: false,
        dep: false,
        iwp: false,
    };
    /// Search region reduction only.
    pub const SRR: Scheme = Scheme { srr: true, ..Scheme::NWC };
    /// Distance-based pruning only.
    pub const DIP: Scheme = Scheme { dip: true, ..Scheme::NWC };
    /// Density-based pruning only.
    pub const DEP: Scheme = Scheme { dep: true, ..Scheme::NWC };
    /// Incremental window query processing only.
    pub const IWP: Scheme = Scheme { iwp: true, ..Scheme::NWC };
    /// SRR + DIP — the best storage-free combination (paper "NWC+").
    pub const NWC_PLUS: Scheme = Scheme {
        srr: true,
        dip: true,
        dep: false,
        iwp: false,
    };
    /// All four techniques (paper "NWC*").
    pub const NWC_STAR: Scheme = Scheme {
        srr: true,
        dip: true,
        dep: true,
        iwp: true,
    };

    /// The seven schemes of Table 3, in the paper's order.
    pub const TABLE3: [Scheme; 7] = [
        Scheme::NWC,
        Scheme::SRR,
        Scheme::DIP,
        Scheme::DEP,
        Scheme::IWP,
        Scheme::NWC_PLUS,
        Scheme::NWC_STAR,
    ];

    /// The paper's label for this scheme, falling back to a flag list for
    /// unnamed combinations.
    pub fn label(&self) -> String {
        match *self {
            Scheme::NWC => "NWC".into(),
            Scheme::SRR => "SRR".into(),
            Scheme::DIP => "DIP".into(),
            Scheme::DEP => "DEP".into(),
            Scheme::IWP => "IWP".into(),
            Scheme::NWC_PLUS => "NWC+".into(),
            Scheme::NWC_STAR => "NWC*".into(),
            _ => {
                let mut parts = Vec::new();
                if self.srr {
                    parts.push("SRR");
                }
                if self.dip {
                    parts.push("DIP");
                }
                if self.dep {
                    parts.push("DEP");
                }
                if self.iwp {
                    parts.push("IWP");
                }
                if parts.is_empty() {
                    "NWC".into()
                } else {
                    parts.join("+")
                }
            }
        }
    }

}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<String> = Scheme::TABLE3.iter().map(Scheme::label).collect();
        assert_eq!(labels, ["NWC", "SRR", "DIP", "DEP", "IWP", "NWC+", "NWC*"]);
    }

    #[test]
    fn custom_combination_label() {
        let s = Scheme {
            srr: true,
            dep: true,
            ..Scheme::NWC
        };
        assert_eq!(s.label(), "SRR+DEP");
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(Scheme::default(), Scheme::NWC);
    }
}
