//! Procedural object-detection dataset with COCO-format ground truth.
//!
//! Stands in for COCO/KITTI-style data: each image is a dark background
//! with 1–4 bright axis-aligned rectangles, each belonging to a category
//! that determines its intensity pattern. Ground-truth boxes are recorded
//! in COCO `[x, y, w, h]` form and the whole dataset exports as a COCO
//! JSON document — feeding the paper's Fig. 3 output pipeline.

use crate::record::{CocoAnnotation, CocoCategory, CocoGroundTruth, ImageRecord};
use alfi_tensor::Tensor;
use alfi_rng::Rng;

/// One ground-truth object in an image.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthBox {
    /// `[x, y, width, height]` in pixels (COCO convention).
    pub bbox: [f32; 4],
    /// Object category.
    pub category_id: usize,
}

alfi_serde::json_struct!(GroundTruthBox { bbox, category_id });

/// One detection sample.
#[derive(Debug, Clone)]
pub struct DetectionSample {
    /// Image tensor `[c, h, w]`.
    pub image: Tensor,
    /// Ground-truth objects.
    pub objects: Vec<GroundTruthBox>,
    /// Preserved metadata.
    pub record: ImageRecord,
}

/// Deterministic synthetic detection dataset.
#[derive(Debug, Clone)]
pub struct DetectionDataset {
    len: usize,
    num_classes: usize,
    channels: usize,
    hw: usize,
    seed: u64,
}

impl DetectionDataset {
    /// Creates a dataset of `len` scenes with objects from `num_classes`
    /// categories on `channels × hw × hw` images, determined by `seed`.
    pub fn new(len: usize, num_classes: usize, channels: usize, hw: usize, seed: u64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(hw >= 16, "scene images need hw >= 16");
        DetectionDataset { len, num_classes, channels, hw, seed }
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of object categories.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image side length.
    pub fn image_hw(&self) -> usize {
        self.hw
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Generates sample `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> DetectionSample {
        assert!(index < self.len, "index {index} out of range for dataset of {}", self.len);
        let mut rng =
            Rng::from_seed(self.seed ^ (index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let n_objects = rng.gen_range(1..=4usize);
        let hw = self.hw as f32;
        let mut data = vec![0.05f32; self.channels * self.hw * self.hw];
        let mut objects = Vec::with_capacity(n_objects);
        for _ in 0..n_objects {
            let category_id = rng.gen_range(0..self.num_classes);
            let w = rng.gen_range(hw * 0.12..hw * 0.4);
            let h = rng.gen_range(hw * 0.12..hw * 0.4);
            let x = rng.gen_range(0.0..hw - w);
            let y = rng.gen_range(0.0..hw - h);
            // Category-specific intensity per channel.
            let base = 0.3 + 0.6 * (category_id as f32 + 1.0) / self.num_classes as f32;
            for c in 0..self.channels {
                let level = base * (1.0 - 0.15 * c as f32).max(0.2);
                for py in y as usize..(y + h) as usize {
                    for px in x as usize..(x + w) as usize {
                        let idx = (c * self.hw + py) * self.hw + px;
                        data[idx] = data[idx].max(level);
                    }
                }
            }
            objects.push(GroundTruthBox { bbox: [x, y, w, h], category_id });
        }
        let image = Tensor::from_vec(data, &[self.channels, self.hw, self.hw])
            .expect("dims consistent with generated data");
        DetectionSample {
            image,
            objects,
            record: ImageRecord {
                image_id: index as u64,
                file_name: format!("synthetic/scene/img_{index:06}.png"),
                height: self.hw as u32,
                width: self.hw as u32,
            },
        }
    }

    /// Exports the full dataset's annotations as a COCO ground-truth
    /// document (the first of the three output sets of Fig. 3).
    pub fn coco_ground_truth(&self) -> CocoGroundTruth {
        let mut gt = CocoGroundTruth::default();
        for cid in 0..self.num_classes {
            gt.categories.push(CocoCategory { id: cid, name: format!("class_{cid}") });
        }
        let mut ann_id = 0u64;
        for i in 0..self.len {
            let sample = self.get(i);
            gt.images.push(sample.record.clone());
            for obj in &sample.objects {
                gt.annotations.push(CocoAnnotation {
                    id: ann_id,
                    image_id: sample.record.image_id,
                    category_id: obj.category_id,
                    bbox: obj.bbox,
                    area: obj.bbox[2] * obj.bbox[3],
                    iscrowd: 0,
                });
                ann_id += 1;
            }
        }
        gt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_are_deterministic() {
        let ds = DetectionDataset::new(10, 4, 3, 32, 5);
        let a = ds.get(4);
        let b = ds.get(4);
        assert_eq!(a.image.data(), b.image.data());
        assert_eq!(a.objects, b.objects);
    }

    #[test]
    fn every_scene_has_one_to_four_objects_in_frame() {
        let ds = DetectionDataset::new(30, 4, 3, 32, 5);
        for i in 0..ds.len() {
            let s = ds.get(i);
            assert!((1..=4).contains(&s.objects.len()));
            for o in &s.objects {
                assert!(o.bbox[0] >= 0.0 && o.bbox[1] >= 0.0);
                assert!(o.bbox[0] + o.bbox[2] <= 32.0 + 1e-3);
                assert!(o.bbox[1] + o.bbox[3] <= 32.0 + 1e-3);
                assert!(o.category_id < 4);
            }
        }
    }

    #[test]
    fn objects_are_brighter_than_background() {
        let ds = DetectionDataset::new(5, 4, 1, 32, 9);
        let s = ds.get(0);
        let o = &s.objects[0];
        let cx = (o.bbox[0] + o.bbox[2] / 2.0) as usize;
        let cy = (o.bbox[1] + o.bbox[3] / 2.0) as usize;
        assert!(s.image.get(&[0, cy, cx]) > 0.05);
    }

    #[test]
    fn coco_export_indexes_every_image_and_object() {
        let ds = DetectionDataset::new(8, 3, 3, 32, 2);
        let gt = ds.coco_ground_truth();
        assert_eq!(gt.images.len(), 8);
        assert_eq!(gt.categories.len(), 3);
        let total: usize = (0..8).map(|i| ds.get(i).objects.len()).sum();
        assert_eq!(gt.annotations.len(), total);
        // annotation ids are unique
        let mut ids: Vec<u64> = gt.annotations.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total);
        // round-trips through JSON
        let back = CocoGroundTruth::from_json(&gt.to_json().unwrap()).unwrap();
        assert_eq!(gt, back);
    }
}
