//! COCO-style metadata records.
//!
//! PyTorchALFI wraps existing data loaders so that "the minimal
//! information stored about each image is directory+filename, height,
//! width, and image id" and "each dataset is first brought into a JSON
//! format as used in the COCO data set" (§V-E). These records are what
//! lets a persisted fault file be traced back to the *exact* image that
//! was being processed when a fault was active.

use alfi_serde::{json_struct, FromJson, Json, JsonError};

/// Metadata preserved for every image flowing through an ALFI campaign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImageRecord {
    /// Unique image id within the dataset.
    pub image_id: u64,
    /// Directory + file name (synthetic datasets fabricate a stable
    /// virtual path).
    pub file_name: String,
    /// Image height in pixels.
    pub height: u32,
    /// Image width in pixels.
    pub width: u32,
}

/// One ground-truth object annotation, COCO conventions: `bbox` is
/// `[x, y, width, height]` in pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct CocoAnnotation {
    /// Unique annotation id.
    pub id: u64,
    /// Id of the annotated image.
    pub image_id: u64,
    /// Object category.
    pub category_id: usize,
    /// `[x, y, width, height]` in pixels.
    pub bbox: [f32; 4],
    /// Box area in square pixels.
    pub area: f32,
    /// COCO crowd flag (always 0 for synthetic data).
    pub iscrowd: u8,
}

/// A category entry of the COCO index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CocoCategory {
    /// Category id.
    pub id: usize,
    /// Human-readable name.
    pub name: String,
}

/// A complete COCO-format ground-truth document (images + annotations +
/// categories), serializable with the in-tree `alfi-serde` JSON module —
/// the "ground truth and meta-files" output set of the paper's Fig. 3.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CocoGroundTruth {
    /// Image index.
    pub images: Vec<ImageRecord>,
    /// All object annotations.
    pub annotations: Vec<CocoAnnotation>,
    /// Category index.
    pub categories: Vec<CocoCategory>,
}

json_struct!(ImageRecord { image_id, file_name, height, width });
json_struct!(CocoAnnotation { id, image_id, category_id, bbox, area, iscrowd });
json_struct!(CocoCategory { id, name });
json_struct!(CocoGroundTruth { images, annotations, categories });

impl CocoGroundTruth {
    /// Serializes to pretty-printed COCO JSON.
    ///
    /// # Errors
    ///
    /// Infallible for this data model; the `Result` keeps the historical
    /// signature.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(alfi_serde::to_pretty(self))
    }

    /// Parses a COCO JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed input.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        FromJson::from_json(&Json::parse(text)?)
    }

    /// All annotations for one image.
    pub fn annotations_for(&self, image_id: u64) -> Vec<&CocoAnnotation> {
        self.annotations.iter().filter(|a| a.image_id == image_id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CocoGroundTruth {
        CocoGroundTruth {
            images: vec![ImageRecord {
                image_id: 1,
                file_name: "synthetic/scene_000001.png".into(),
                height: 64,
                width: 64,
            }],
            annotations: vec![CocoAnnotation {
                id: 10,
                image_id: 1,
                category_id: 2,
                bbox: [4.0, 8.0, 16.0, 12.0],
                area: 192.0,
                iscrowd: 0,
            }],
            categories: vec![CocoCategory { id: 2, name: "square".into() }],
        }
    }

    #[test]
    fn coco_json_round_trips() {
        let gt = sample();
        let json = gt.to_json().unwrap();
        let back = CocoGroundTruth::from_json(&json).unwrap();
        assert_eq!(gt, back);
    }

    #[test]
    fn json_uses_coco_field_names() {
        let json = sample().to_json().unwrap();
        for key in ["images", "annotations", "categories", "image_id", "category_id", "bbox", "iscrowd"] {
            assert!(json.contains(key), "missing key {key}");
        }
    }

    #[test]
    fn annotations_for_filters_by_image() {
        let mut gt = sample();
        gt.annotations.push(CocoAnnotation {
            id: 11,
            image_id: 2,
            category_id: 1,
            bbox: [0.0, 0.0, 1.0, 1.0],
            area: 1.0,
            iscrowd: 0,
        });
        assert_eq!(gt.annotations_for(1).len(), 1);
        assert_eq!(gt.annotations_for(2).len(), 1);
        assert!(gt.annotations_for(3).is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(CocoGroundTruth::from_json("{not json").is_err());
    }
}
