use crate::{ChannelOrder, PreprocessError, Result};

/// An 8-bit interleaved 3-channel raster image (the "camera byte array" of an
/// edge app, before any model-facing preprocessing).
///
/// The pixel buffer is row-major `[height, width, 3]`. The [`ChannelOrder`]
/// records which color lives in which byte — swapping the *label* without
/// swapping the *bytes* is exactly the channel-extraction bug of §2, and
/// [`Image::relabeled`] exists to let tests and experiments commit that bug
/// on purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    order: ChannelOrder,
    data: Vec<u8>,
}

impl Image {
    /// Number of interleaved channels (always 3 for this crate).
    pub const CHANNELS: usize = 3;

    /// Creates an image from an interleaved buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PreprocessError::InvalidImage`] if the buffer length is not
    /// `width * height * 3`, that product overflows `usize`, or a dimension
    /// is zero.
    pub fn from_raw(
        width: usize,
        height: usize,
        order: ChannelOrder,
        data: Vec<u8>,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(PreprocessError::InvalidImage("zero-sized image".into()));
        }
        let expected = Self::byte_len(width, height)?;
        if data.len() != expected {
            return Err(PreprocessError::InvalidImage(format!(
                "buffer length {} does not match {width}x{height}x3 = {expected}",
                data.len()
            )));
        }
        Ok(Image {
            width,
            height,
            order,
            data,
        })
    }

    /// `width * height * 3`, the bytes of a `width x height` image.
    ///
    /// # Errors
    ///
    /// Returns [`PreprocessError::InvalidImage`] when the product overflows
    /// `usize`.
    pub(crate) fn byte_len(width: usize, height: usize) -> Result<usize> {
        width
            .checked_mul(height)
            .and_then(|pixels| pixels.checked_mul(Self::CHANNELS))
            .ok_or_else(|| {
                PreprocessError::InvalidImage(format!(
                    "{width}x{height}x3 bytes overflow the address space"
                ))
            })
    }

    /// Creates a solid-color RGB image.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or if `width * height * 3`
    /// overflows `usize`.
    pub fn solid(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        assert!(width > 0 && height > 0, "zero-sized image");
        let len = Self::byte_len(width, height).expect("image size fits usize");
        let mut data = Vec::with_capacity(len);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        Image {
            width,
            height,
            order: ChannelOrder::Rgb,
            data,
        }
    }

    /// Creates a 2x2-tile RGB checkerboard (useful for resize/aliasing tests).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or if `width * height * 3`
    /// overflows `usize`.
    pub fn checkerboard(width: usize, height: usize, a: [u8; 3], b: [u8; 3]) -> Self {
        assert!(width > 0 && height > 0, "zero-sized image");
        let len = Self::byte_len(width, height).expect("image size fits usize");
        let mut data = Vec::with_capacity(len);
        for y in 0..height {
            for x in 0..width {
                let cell = if (x + y) % 2 == 0 { a } else { b };
                data.extend_from_slice(&cell);
            }
        }
        Image {
            width,
            height,
            order: ChannelOrder::Rgb,
            data,
        }
    }

    /// A zero-filled image in `order`, for writers that overwrite every
    /// byte: one allocation, no fill-then-clone.
    ///
    /// # Errors
    ///
    /// Returns [`PreprocessError::InvalidImage`] when `width * height * 3`
    /// overflows `usize`.
    pub(crate) fn blank(width: usize, height: usize, order: ChannelOrder) -> Result<Self> {
        Ok(Image {
            width,
            height,
            order,
            data: vec![0; Self::byte_len(width, height)?],
        })
    }

    /// A zero-filled `width x height` image with `self`'s order and byte
    /// count, for a rotation or mirror of `self` (the same pixel count) to
    /// overwrite.
    pub(crate) fn blank_like(&self, width: usize, height: usize) -> Self {
        debug_assert_eq!(width * height, self.width * self.height);
        Image {
            width,
            height,
            order: self.order,
            data: vec![0; self.data.len()],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Channel order of the underlying bytes.
    pub fn order(&self) -> ChannelOrder {
        self.order
    }

    /// Borrow of the interleaved pixel buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable borrow of the interleaved pixel buffer.
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The 3 bytes at pixel `(x, y)` in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the 3 bytes at pixel `(x, y)` in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, px: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&px);
    }

    /// Correctly converts the image to the requested channel order, swapping
    /// bytes when needed.
    pub fn to_order(&self, order: ChannelOrder) -> Image {
        if order == self.order {
            return self.clone();
        }
        let mut data = self.data.clone();
        for px in data.chunks_exact_mut(3) {
            px.swap(0, 2);
        }
        Image {
            width: self.width,
            height: self.height,
            order,
            data,
        }
    }

    /// Relabels the channel order **without touching the bytes** — the §2
    /// channel-extraction bug. A BGR buffer relabeled as RGB feeds the model
    /// swapped colors with no runtime error.
    pub fn relabeled(&self, order: ChannelOrder) -> Image {
        Image {
            width: self.width,
            height: self.height,
            order,
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_validates_dimensions() {
        assert!(Image::from_raw(0, 4, ChannelOrder::Rgb, vec![]).is_err());
        assert!(Image::from_raw(2, 2, ChannelOrder::Rgb, vec![0; 11]).is_err());
        assert!(Image::from_raw(2, 2, ChannelOrder::Rgb, vec![0; 12]).is_ok());
    }

    #[test]
    fn from_raw_refuses_a_size_that_overflows() {
        // 2^62 · 4 · 3 wraps to 0 bytes, which an empty buffer would match.
        let err = Image::from_raw(1 << 62, 4, ChannelOrder::Rgb, vec![]).unwrap_err();
        assert!(matches!(err, PreprocessError::InvalidImage(_)), "{err:?}");
        assert!(Image::from_raw(usize::MAX, 2, ChannelOrder::Rgb, vec![]).is_err());
    }

    #[test]
    fn blank_refuses_a_size_that_overflows() {
        assert!(matches!(
            Image::blank(1 << 62, 4, ChannelOrder::Rgb),
            Err(PreprocessError::InvalidImage(_))
        ));
        assert_eq!(
            Image::blank(2, 3, ChannelOrder::Bgr).unwrap().data().len(),
            18
        );
    }

    #[test]
    fn to_order_swaps_bytes() {
        let img = Image::solid(1, 1, [10, 20, 30]);
        let bgr = img.to_order(ChannelOrder::Bgr);
        assert_eq!(bgr.pixel(0, 0), [30, 20, 10]);
        // Round trip restores the original bytes.
        assert_eq!(bgr.to_order(ChannelOrder::Rgb).pixel(0, 0), [10, 20, 30]);
    }

    #[test]
    fn relabeled_keeps_bytes() {
        let img = Image::solid(1, 1, [10, 20, 30]);
        let buggy = img.relabeled(ChannelOrder::Bgr);
        assert_eq!(buggy.pixel(0, 0), [10, 20, 30]);
        assert_eq!(buggy.order(), ChannelOrder::Bgr);
    }

    #[test]
    fn checkerboard_alternates() {
        let img = Image::checkerboard(2, 2, [255, 0, 0], [0, 0, 255]);
        assert_eq!(img.pixel(0, 0), [255, 0, 0]);
        assert_eq!(img.pixel(1, 0), [0, 0, 255]);
        assert_eq!(img.pixel(0, 1), [0, 0, 255]);
        assert_eq!(img.pixel(1, 1), [255, 0, 0]);
    }
}
