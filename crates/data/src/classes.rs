//! The 18 LISA sign classes used by the paper and their synthetic visual
//! identity (shape, palette and glyph pattern).

use serde::{Deserialize, Serialize};

use crate::{DataError, Result};

/// Number of sign classes (the paper keeps the 18 most frequent LISA
/// classes).
pub const NUM_CLASSES: usize = 18;

/// Class identifier of the stop sign — the attack target substrate of every
/// experiment in the paper.
pub const STOP_CLASS_ID: usize = 14;

/// Geometric silhouette of a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum SignShape {
    /// Eight-sided stop sign.
    Octagon,
    /// Diamond (square rotated 45°) warning sign.
    Diamond,
    /// Upright rectangle (regulatory / speed limit).
    Rectangle,
    /// Downward-pointing triangle (yield).
    TriangleDown,
    /// Circle.
    Circle,
}

/// Simple glyph pattern drawn inside the sign to make classes visually
/// distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Glyph {
    /// A single horizontal bar.
    HorizontalBar,
    /// A single vertical bar.
    VerticalBar,
    /// Two horizontal bars.
    DoubleBar,
    /// A plus / cross.
    Cross,
    /// A diagonal stripe from top-left to bottom-right.
    DiagonalDown,
    /// A diagonal stripe from bottom-left to top-right.
    DiagonalUp,
    /// A centred filled square dot.
    Dot,
    /// A chevron pointing right.
    ChevronRight,
    /// A chevron pointing left.
    ChevronLeft,
    /// No glyph (blank face).
    None,
}

/// Static description of one sign class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SignClass {
    /// Class identifier in `0..NUM_CLASSES`.
    id: usize,
    /// LISA class name.
    name: &'static str,
    /// Sign silhouette.
    pub(crate) shape: SignShape,
    /// Face (fill) colour, RGB in `[0, 1]`.
    pub(crate) fill: [f32; 3],
    /// Glyph colour, RGB in `[0, 1]`.
    pub(crate) glyph_color: [f32; 3],
    /// Glyph pattern.
    pub(crate) glyph: Glyph,
}

const YELLOW: [f32; 3] = [0.95, 0.80, 0.15];
const RED: [f32; 3] = [0.80, 0.10, 0.10];
const WHITE: [f32; 3] = [0.92, 0.92, 0.92];
const ORANGE: [f32; 3] = [0.95, 0.55, 0.10];
const BLACK: [f32; 3] = [0.05, 0.05, 0.05];

/// The full class table, indexed by class id.
pub(crate) const CLASSES: [SignClass; NUM_CLASSES] = [
    SignClass {
        id: 0,
        name: "addedLane",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::VerticalBar,
    },
    SignClass {
        id: 1,
        name: "curveLeft",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::ChevronLeft,
    },
    SignClass {
        id: 2,
        name: "curveRight",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::ChevronRight,
    },
    SignClass {
        id: 3,
        name: "dip",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::HorizontalBar,
    },
    SignClass {
        id: 4,
        name: "doNotPass",
        shape: SignShape::Rectangle,
        fill: WHITE,
        glyph_color: BLACK,
        glyph: Glyph::DiagonalDown,
    },
    SignClass {
        id: 5,
        name: "intersection",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::Cross,
    },
    SignClass {
        id: 6,
        name: "keepRight",
        shape: SignShape::Rectangle,
        fill: WHITE,
        glyph_color: BLACK,
        glyph: Glyph::ChevronRight,
    },
    SignClass {
        id: 7,
        name: "laneEnds",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::DiagonalUp,
    },
    SignClass {
        id: 8,
        name: "merge",
        shape: SignShape::Diamond,
        fill: ORANGE,
        glyph_color: BLACK,
        glyph: Glyph::DiagonalDown,
    },
    SignClass {
        id: 9,
        name: "pedestrianCrossing",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: BLACK,
        glyph: Glyph::Dot,
    },
    SignClass {
        id: 10,
        name: "school",
        shape: SignShape::Diamond,
        fill: ORANGE,
        glyph_color: BLACK,
        glyph: Glyph::DoubleBar,
    },
    SignClass {
        id: 11,
        name: "signalAhead",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: RED,
        glyph: Glyph::Dot,
    },
    SignClass {
        id: 12,
        name: "speedLimit25",
        shape: SignShape::Rectangle,
        fill: WHITE,
        glyph_color: BLACK,
        glyph: Glyph::HorizontalBar,
    },
    SignClass {
        id: 13,
        name: "speedLimit35",
        shape: SignShape::Rectangle,
        fill: WHITE,
        glyph_color: BLACK,
        glyph: Glyph::DoubleBar,
    },
    SignClass {
        id: 14,
        name: "stop",
        shape: SignShape::Octagon,
        fill: RED,
        glyph_color: WHITE,
        glyph: Glyph::HorizontalBar,
    },
    SignClass {
        id: 15,
        name: "stopAhead",
        shape: SignShape::Diamond,
        fill: YELLOW,
        glyph_color: RED,
        glyph: Glyph::Cross,
    },
    SignClass {
        id: 16,
        name: "turnRight",
        shape: SignShape::Rectangle,
        fill: WHITE,
        glyph_color: BLACK,
        glyph: Glyph::VerticalBar,
    },
    SignClass {
        id: 17,
        name: "yield",
        shape: SignShape::TriangleDown,
        fill: WHITE,
        glyph_color: RED,
        glyph: Glyph::None,
    },
];

impl SignClass {
    /// Looks up a class by identifier.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownClass`] for ids `>= NUM_CLASSES`.
    pub(crate) fn from_id(id: usize) -> Result<SignClass> {
        CLASSES.get(id).copied().ok_or(DataError::UnknownClass(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_is_consistent() {
        assert_eq!(CLASSES.len(), NUM_CLASSES);
        for (i, class) in CLASSES.iter().enumerate() {
            assert_eq!(class.id, i);
        }
        let names: HashSet<_> = CLASSES.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), NUM_CLASSES, "class names must be unique");
    }

    #[test]
    fn visual_identities_are_unique() {
        let identities: HashSet<_> = CLASSES
            .iter()
            .map(|c| {
                (
                    c.shape,
                    c.glyph,
                    (c.fill[0] * 100.0) as i32,
                    (c.glyph_color[0] * 100.0) as i32,
                )
            })
            .collect();
        assert_eq!(
            identities.len(),
            NUM_CLASSES,
            "each class must look distinct"
        );
    }

    #[test]
    fn stop_class_is_the_octagon() {
        let stop = SignClass::from_id(STOP_CLASS_ID).unwrap();
        assert_eq!(stop.name, "stop");
        assert_eq!(stop.shape, SignShape::Octagon);
    }

    #[test]
    fn unknown_lookups_fail() {
        assert!(SignClass::from_id(NUM_CLASSES).is_err());
    }
}
