use serde::{Deserialize, Serialize};

use crate::{Image, PreprocessError, Result};

/// Clockwise rotation applied to a captured frame.
///
/// Training images always arrive upright; a phone held sideways delivers a
/// rotated frame, which §4.3 shows costs 21–39 % top-1 accuracy even on
/// models trained with augmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rotation {
    /// Upright.
    None,
    /// 90° clockwise.
    Deg90,
    /// 180°.
    Deg180,
    /// 270° clockwise.
    Deg270,
}

impl Rotation {
    /// All rotations, for sweeps.
    pub const ALL: [Rotation; 4] = [
        Rotation::None,
        Rotation::Deg90,
        Rotation::Deg180,
        Rotation::Deg270,
    ];
}

/// Rotates an image clockwise.
pub fn rotate(img: &Image, rotation: Rotation) -> Image {
    match rotation {
        Rotation::None => img.clone(),
        Rotation::Deg90 => {
            let (w, h) = (img.width(), img.height());
            let mut out = img.blank_like(h, w);
            for y in 0..h {
                for x in 0..w {
                    out.set_pixel(h - 1 - y, x, img.pixel(x, y));
                }
            }
            out
        }
        Rotation::Deg180 => {
            let (w, h) = (img.width(), img.height());
            let mut out = img.blank_like(w, h);
            for y in 0..h {
                for x in 0..w {
                    out.set_pixel(w - 1 - x, h - 1 - y, img.pixel(x, y));
                }
            }
            out
        }
        Rotation::Deg270 => {
            let (w, h) = (img.width(), img.height());
            let mut out = img.blank_like(h, w);
            for y in 0..h {
                for x in 0..w {
                    out.set_pixel(y, w - 1 - x, img.pixel(x, y));
                }
            }
            out
        }
    }
}

/// Mirrors an image left-right.
pub fn flip_horizontal(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    let mut out = img.blank_like(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set_pixel(w - 1 - x, y, img.pixel(x, y));
        }
    }
    out
}

/// Mirrors an image top-bottom.
pub fn flip_vertical(img: &Image) -> Image {
    let (w, h) = (img.width(), img.height());
    let mut out = img.blank_like(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set_pixel(x, h - 1 - y, img.pixel(x, y));
        }
    }
    out
}

/// Extracts a centered `crop_width x crop_height` window.
///
/// # Errors
///
/// Returns [`PreprocessError::InvalidImage`] if the crop exceeds the image.
pub fn center_crop(img: &Image, crop_width: usize, crop_height: usize) -> Result<Image> {
    if crop_width == 0 || crop_height == 0 || crop_width > img.width() || crop_height > img.height()
    {
        return Err(PreprocessError::InvalidImage(format!(
            "crop {crop_width}x{crop_height} invalid for {}x{}",
            img.width(),
            img.height()
        )));
    }
    let x0 = (img.width() - crop_width) / 2;
    let y0 = (img.height() - crop_height) / 2;
    let mut out = Image::blank(crop_width, crop_height, img.order())?;
    for y in 0..crop_height {
        for x in 0..crop_width {
            out.set_pixel(x, y, img.pixel(x0 + x, y0 + y));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2x3 image with a unique pixel value per cell (value = index).
    fn probe() -> Image {
        let mut img = Image::solid(2, 3, [0, 0, 0]);
        for y in 0..3 {
            for x in 0..2 {
                let v = (y * 2 + x) as u8;
                img.set_pixel(x, y, [v, v, v]);
            }
        }
        img
    }

    #[test]
    fn rotate_90_transposes() {
        let img = probe();
        let r = rotate(&img, Rotation::Deg90);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 2);
        // Top-left of source goes to top-right.
        assert_eq!(r.pixel(2, 0), img.pixel(0, 0));
        // Bottom-left of source goes to top-left.
        assert_eq!(r.pixel(0, 0), img.pixel(0, 2));
    }

    #[test]
    fn four_quarter_turns_are_identity() {
        let img = probe();
        let mut r = img.clone();
        for _ in 0..4 {
            r = rotate(&r, Rotation::Deg90);
        }
        assert_eq!(r, img);
    }

    #[test]
    fn deg180_equals_two_deg90() {
        let img = probe();
        let twice = rotate(&rotate(&img, Rotation::Deg90), Rotation::Deg90);
        assert_eq!(twice, rotate(&img, Rotation::Deg180));
    }

    #[test]
    fn deg270_equals_three_deg90() {
        let img = probe();
        let thrice = rotate(
            &rotate(&rotate(&img, Rotation::Deg90), Rotation::Deg90),
            Rotation::Deg90,
        );
        assert_eq!(thrice, rotate(&img, Rotation::Deg270));
    }

    #[test]
    fn double_flip_is_identity() {
        let img = probe();
        assert_eq!(flip_horizontal(&flip_horizontal(&img)), img);
        assert_eq!(flip_vertical(&flip_vertical(&img)), img);
    }

    #[test]
    fn center_crop_takes_middle() {
        let mut img = Image::solid(4, 4, [0, 0, 0]);
        img.set_pixel(1, 1, [7, 7, 7]);
        let c = center_crop(&img, 2, 2).unwrap();
        assert_eq!(c.pixel(0, 0), [7, 7, 7]);
        assert!(center_crop(&img, 5, 2).is_err());
    }
}
