//! MRRG resource cells.

use rewire_arch::{LinkId, PeId};
use std::fmt;

/// One time-extended resource cell of the MRRG.
///
/// `slot` is always a *modulo* cycle in `0..II`; absolute schedule times are
/// reduced by the owning [`Mrrg`](crate::Mrrg) before cells are touched.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Resource {
    /// The ALU of `pe` in modulo slot `slot` (exclusive to one DFG node).
    Fu {
        /// Owning PE.
        pe: PeId,
        /// Modulo cycle slot.
        slot: u32,
    },
    /// The directed NoC link `link` in modulo slot `slot`.
    Link {
        /// The traversed link.
        link: LinkId,
        /// Modulo slot of the departure cycle.
        slot: u32,
    },
    /// Register `reg` of `pe` during modulo slot `slot`.
    Reg {
        /// Owning PE.
        pe: PeId,
        /// Register index within the PE's register file.
        reg: u8,
        /// Modulo slot during which the value resides in the register.
        slot: u32,
    },
}

impl Resource {
    /// The modulo slot of this cell.
    pub fn slot(&self) -> u32 {
        match *self {
            Resource::Fu { slot, .. }
            | Resource::Link { slot, .. }
            | Resource::Reg { slot, .. } => slot,
        }
    }

    /// `true` for register cells — the scarce commodity the paper's
    /// 1-register configuration stresses.
    pub fn is_reg(&self) -> bool {
        matches!(self, Resource::Reg { .. })
    }

    /// `true` for link cells.
    pub fn is_link(&self) -> bool {
        matches!(self, Resource::Link { .. })
    }

    /// `true` for FU cells.
    pub fn is_fu(&self) -> bool {
        matches!(self, Resource::Fu { .. })
    }

    /// Resource class label for forensics: `"fu"`, `"link"`, or `"reg"`.
    pub fn class(&self) -> &'static str {
        match self {
            Resource::Fu { .. } => "fu",
            Resource::Link { .. } => "link",
            Resource::Reg { .. } => "reg",
        }
    }

    /// The `(pe, class, cycle)` key the flight recorder's congestion
    /// heatmap uses. Links are attributed to their *source* PE (the PE
    /// whose output port contends), which needs the owning fabric.
    pub fn forensics_key(&self, cgra: &rewire_arch::Cgra) -> (u32, &'static str, u32) {
        let pe = match *self {
            Resource::Fu { pe, .. } | Resource::Reg { pe, .. } => pe,
            Resource::Link { link, .. } => cgra.link(link).src(),
        };
        (pe.index() as u32, self.class(), self.slot())
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Resource::Fu { pe, slot } => write!(f, "FU({pe}@{slot})"),
            Resource::Link { link, slot } => write!(f, "LINK({link}@{slot})"),
            Resource::Reg { pe, reg, slot } => write!(f, "REG({pe}.r{reg}@{slot})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        let fu = Resource::Fu {
            pe: PeId::new(0),
            slot: 1,
        };
        let link = Resource::Link {
            link: LinkId::new(2),
            slot: 0,
        };
        let reg = Resource::Reg {
            pe: PeId::new(3),
            reg: 1,
            slot: 2,
        };
        assert!(fu.is_fu() && !fu.is_link() && !fu.is_reg());
        assert!(link.is_link());
        assert!(reg.is_reg());
        assert_eq!(fu.slot(), 1);
        assert_eq!(link.slot(), 0);
        assert_eq!(reg.slot(), 2);
    }

    #[test]
    fn forensics_keys_attribute_links_to_their_source_pe() {
        let cgra = rewire_arch::presets::paper_4x4_r4();
        let fu = Resource::Fu {
            pe: PeId::new(5),
            slot: 2,
        };
        assert_eq!(fu.forensics_key(&cgra), (5, "fu", 2));
        let reg = Resource::Reg {
            pe: PeId::new(3),
            reg: 0,
            slot: 1,
        };
        assert_eq!(reg.forensics_key(&cgra), (3, "reg", 1));
        let link = cgra.links().next().unwrap();
        let cell = Resource::Link {
            link: link.id(),
            slot: 0,
        };
        assert_eq!(
            cell.forensics_key(&cgra),
            (link.src().index() as u32, "link", 0)
        );
        assert_eq!(cell.class(), "link");
    }

    #[test]
    fn display_forms() {
        let reg = Resource::Reg {
            pe: PeId::new(3),
            reg: 1,
            slot: 2,
        };
        assert_eq!(format!("{reg}"), "REG(PE3.r1@2)");
    }
}
