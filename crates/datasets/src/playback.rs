//! SD-card style data playback.
//!
//! §4 of the paper: "these apps are instrumented, using our APIs, in a way
//! that they can accept data from an SD card in addition to the original
//! sensor streams". This module is that SD card: labelled frames are written
//! to a directory once and replayed deterministically by both the edge and
//! the reference pipeline, guaranteeing the two see byte-identical input.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mlexray_preprocess::{ChannelOrder, Image};

use crate::synth_image::LabeledImage;
use crate::{DatasetError, Result};

/// A playback source the sharded replay engine can partition: random access
/// by frame index, cheap to clone (workers each hold their own handle), and
/// safe to read from many threads at once.
///
/// Implementations must be *deterministic*: two reads of the same index —
/// from any thread, in any order — return the same frame. That property is
/// what lets per-worker shards merge into a byte-identical replay.
pub trait PlaybackSource: Clone + Send + Sync {
    /// Number of stored frames (contiguous from 0).
    fn frame_count(&self) -> usize;

    /// Reads the frame at `index`.
    ///
    /// # Errors
    ///
    /// Returns a dataset error for missing or corrupted frames.
    fn read_frame(&self, index: usize) -> Result<LabeledImage>;

    /// Reads a contiguous shard of frames — the unit the replay engine
    /// hands to one worker.
    ///
    /// # Errors
    ///
    /// Propagates per-frame failures.
    fn read_range(&self, range: Range<usize>) -> Result<Vec<LabeledImage>> {
        range.map(|i| self.read_frame(i)).collect()
    }

    /// Splits `[0, frame_count)` into contiguous shards of at most
    /// `shard_frames` frames. The partition depends only on the source
    /// length, never on who consumes it.
    fn shards(&self, shard_frames: usize) -> Vec<Range<usize>> {
        let n = self.frame_count();
        let size = shard_frames.max(1);
        (0..n.div_ceil(size))
            .map(|i| i * size..((i + 1) * size).min(n))
            .collect()
    }
}

/// An in-memory playback source: the whole dataset pinned in RAM, the
/// zero-I/O counterpart of [`SdCard`] for throughput experiments. Cloning
/// is cheap once wrapped in [`std::sync::Arc`] by the caller; the raw
/// struct clones deeply.
#[derive(Debug, Clone, Default)]
pub struct InMemoryPlayback {
    frames: Vec<LabeledImage>,
}

impl InMemoryPlayback {
    /// Wraps a frame list.
    pub fn new(frames: Vec<LabeledImage>) -> Self {
        InMemoryPlayback { frames }
    }

    /// Loads every frame of an SD card into memory.
    ///
    /// # Errors
    ///
    /// Propagates per-frame read failures.
    pub fn from_card(card: &SdCard) -> Result<Self> {
        Ok(InMemoryPlayback {
            frames: card.read_all()?,
        })
    }

    /// The buffered frames.
    pub fn frames(&self) -> &[LabeledImage] {
        &self.frames
    }
}

impl PlaybackSource for InMemoryPlayback {
    fn frame_count(&self) -> usize {
        self.frames.len()
    }

    fn read_frame(&self, index: usize) -> Result<LabeledImage> {
        self.frames
            .get(index)
            .cloned()
            .ok_or_else(|| DatasetError::Format(format!("frame {index} out of range")))
    }

    fn read_range(&self, range: Range<usize>) -> Result<Vec<LabeledImage>> {
        if range.end > self.frames.len() {
            return Err(DatasetError::Format(format!(
                "range {range:?} out of bounds for {} frames",
                self.frames.len()
            )));
        }
        Ok(self.frames[range].to_vec())
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct FrameMeta {
    width: usize,
    height: usize,
    order: ChannelOrder,
    label: usize,
}

/// A directory of stored frames, replayable in index order.
#[derive(Debug, Clone)]
pub struct SdCard {
    dir: PathBuf,
}

impl SdCard {
    /// Opens (creating if needed) an SD-card directory.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] on filesystem failures.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SdCard { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn frame_paths(&self, index: usize) -> (PathBuf, PathBuf) {
        (
            self.dir.join(format!("frame_{index:05}.raw")),
            self.dir.join(format!("frame_{index:05}.json")),
        )
    }

    /// Writes a labelled frame at `index`, overwriting any previous frame.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] / [`DatasetError::Format`] on failure.
    pub fn write_frame(&self, index: usize, sample: &LabeledImage) -> Result<()> {
        let (raw, meta) = self.frame_paths(index);
        fs::write(&raw, sample.image.data())?;
        let m = FrameMeta {
            width: sample.image.width(),
            height: sample.image.height(),
            order: sample.image.order(),
            label: sample.label,
        };
        let json = serde_json::to_string(&m).map_err(|e| DatasetError::Format(e.to_string()))?;
        fs::write(&meta, json)?;
        Ok(())
    }

    /// Writes a whole dataset, one frame per index.
    ///
    /// # Errors
    ///
    /// Propagates per-frame failures.
    pub fn write_all(&self, samples: &[LabeledImage]) -> Result<()> {
        for (i, s) in samples.iter().enumerate() {
            self.write_frame(i, s)?;
        }
        Ok(())
    }

    /// Reads the frame at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] for missing frames and
    /// [`DatasetError::Format`] for corrupted metadata.
    pub fn read_frame(&self, index: usize) -> Result<LabeledImage> {
        let (raw, meta) = self.frame_paths(index);
        let data = fs::read(&raw)?;
        let json = fs::read_to_string(&meta)?;
        let m: FrameMeta =
            serde_json::from_str(&json).map_err(|e| DatasetError::Format(e.to_string()))?;
        let image = Image::from_raw(m.width, m.height, m.order, data)
            .map_err(|e| DatasetError::Format(e.to_string()))?;
        Ok(LabeledImage {
            image,
            label: m.label,
        })
    }

    /// Number of stored frames (contiguous from 0).
    pub fn frame_count(&self) -> usize {
        let mut count = 0;
        while self.frame_paths(count).0.exists() {
            count += 1;
        }
        count
    }

    /// Reads all stored frames in index order.
    ///
    /// # Errors
    ///
    /// Propagates per-frame failures.
    pub fn read_all(&self) -> Result<Vec<LabeledImage>> {
        (0..self.frame_count())
            .map(|i| self.read_frame(i))
            .collect()
    }

    /// Total bytes stored on the card.
    pub fn bytes_used(&self) -> u64 {
        let mut total = 0;
        for i in 0..self.frame_count() {
            let (raw, meta) = self.frame_paths(i);
            for p in [raw, meta] {
                if let Ok(md) = fs::metadata(p) {
                    total += md.len();
                }
            }
        }
        total
    }
}

/// The SD card is itself a shardable source: every worker clones the handle
/// (a path) and reads its shard's frames independently — concurrent reads
/// of distinct files never contend.
impl PlaybackSource for SdCard {
    fn frame_count(&self) -> usize {
        SdCard::frame_count(self)
    }

    fn read_frame(&self, index: usize) -> Result<LabeledImage> {
        SdCard::read_frame(self, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth_image::{generate, SynthImageSpec};

    fn temp_card(tag: &str) -> SdCard {
        let dir = std::env::temp_dir().join(format!("mlexray-sdcard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SdCard::open(dir).unwrap()
    }

    #[test]
    fn roundtrip_preserves_frames() {
        let card = temp_card("roundtrip");
        let data = generate(SynthImageSpec {
            resolution: 32,
            count: 6,
            seed: 1,
        })
        .unwrap();
        card.write_all(&data).unwrap();
        assert_eq!(card.frame_count(), 6);
        let back = card.read_all().unwrap();
        assert_eq!(data, back);
        assert!(card.bytes_used() > 0);
        fs::remove_dir_all(card.dir()).ok();
    }

    #[test]
    fn missing_frame_errors() {
        let card = temp_card("missing");
        assert!(card.read_frame(0).is_err());
        assert_eq!(card.frame_count(), 0);
        fs::remove_dir_all(card.dir()).ok();
    }

    #[test]
    fn shard_partition_is_consumer_independent() {
        let source = InMemoryPlayback::new(
            generate(SynthImageSpec {
                resolution: 16,
                count: 10,
                seed: 3,
            })
            .unwrap(),
        );
        let shards = source.shards(4);
        assert_eq!(shards, vec![0..4, 4..8, 8..10]);
        let covered: usize = shards.iter().map(ExactSizeIterator::len).sum();
        assert_eq!(covered, source.frame_count());
        // A shard read equals the frame-by-frame reads it covers.
        let by_range = source.read_range(4..8).unwrap();
        for (offset, frame) in by_range.iter().enumerate() {
            assert_eq!(frame, &source.read_frame(4 + offset).unwrap());
        }
        assert!(source.read_frame(10).is_err());
        assert!(source.read_range(8..11).is_err());
    }

    #[test]
    fn sdcard_and_memory_sources_agree() {
        let card = temp_card("source");
        let data = generate(SynthImageSpec {
            resolution: 16,
            count: 5,
            seed: 9,
        })
        .unwrap();
        card.write_all(&data).unwrap();
        let memory = InMemoryPlayback::from_card(&card).unwrap();
        assert_eq!(PlaybackSource::frame_count(&card), memory.frame_count());
        // Cloned handles read the same frames from any thread.
        let cloned = card.clone();
        std::thread::scope(|scope| {
            let h = scope.spawn(move || cloned.read_range(2..5).unwrap());
            let direct = memory.read_range(2..5).unwrap();
            assert_eq!(h.join().unwrap(), direct);
        });
        fs::remove_dir_all(card.dir()).ok();
    }
}
