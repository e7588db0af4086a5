//! A synthetic monocular depth camera.
//!
//! PEDRA feeds the policy a monocular RGB frame rendered by Unreal Engine;
//! what the navigation policy actually extracts from it is the proximity of
//! obstacles across the field of view. The substitute camera produces a
//! depth-like grey image directly: each image column is derived from a ray
//! cast into the world across the horizontal field of view, and rows fade
//! with a vertical falloff so the image has 2-D structure for the
//! convolutional layers to exploit.
//!
//! A simulator step needs both the frame and the reward's clearance (the
//! nearest obstacle across the field of view). [`DepthCamera::capture`]
//! builds both from one ray pass: it casts each column's ray once, folds the
//! clearance from those distances, and stages the column proximities in the
//! frame's first row before filling the frame row by row as
//! `proximity[col] * falloff[row]`. [`DepthCamera::render`] is that pass
//! without the clearance. A camera narrower than two columns casts a single
//! centre ray for its frame, while the clearance spans the field of view
//! with two edge rays, so there the clearance comes from
//! [`DepthCamera::min_clearance`] instead.

use navft_nn::Tensor;

use crate::geometry::Vec2;
use crate::world::DroneWorld;

/// Synthetic depth camera parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCamera {
    /// Image width in pixels (one ray per column).
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of image channels (1 for depth, 3 to mimic an RGB pipeline).
    pub channels: usize,
    /// Horizontal field of view, in radians.
    pub fov: f32,
    /// Maximum sensing range, in metres.
    pub max_range: f32,
}

impl DepthCamera {
    /// The camera matching the paper's 103×103×3 network input.
    pub fn paper() -> DepthCamera {
        DepthCamera { width: 103, height: 103, channels: 3, fov: 1.57, max_range: 20.0 }
    }

    /// A reduced 31×31×1 camera matching
    /// [`C3f2Config::scaled`](navft_nn::C3f2Config::scaled).
    pub fn scaled() -> DepthCamera {
        DepthCamera { width: 31, height: 31, channels: 1, fov: 1.57, max_range: 20.0 }
    }

    /// The shape of rendered frames, `[channels, height, width]`.
    pub fn frame_shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Renders a frame from `position` looking along `heading` (radians).
    ///
    /// Pixel values are *proximities* in `[0, 1]`: 0 means nothing within
    /// range, 1 means an obstacle touching the camera. Proximity (rather than
    /// raw depth) keeps "danger" as the high-magnitude signal, which mirrors
    /// how the paper's reward penalises closeness to obstacles.
    pub fn render(&self, world: &DroneWorld, position: Vec2, heading: f32) -> Tensor {
        self.capture(world, position, heading).0
    }

    /// The frame [`render`](Self::render) returns together with the
    /// clearance [`min_clearance`](Self::min_clearance) returns, from one ray
    /// pass.
    ///
    /// Each column's ray is cast once. With two or more columns the frame's
    /// rays are exactly the clearance's rays, so the clearance is the `min`
    /// of those distances, folded in column order from `max_range`. A
    /// narrower camera casts one centre ray for its frame, so its clearance
    /// comes from [`min_clearance`](Self::min_clearance)'s two edge rays.
    pub(crate) fn capture(
        &self,
        world: &DroneWorld,
        position: Vec2,
        heading: f32,
    ) -> (Tensor, f32) {
        let (width, height) = (self.width, self.height);
        let mut frame = Tensor::zeros(&self.frame_shape());
        let data = frame.data_mut();
        let plane = height * width;
        // Stage each column's proximity in the frame's first row.
        let mut clearance = self.max_range;
        for (col, proximity) in data[..width].iter_mut().enumerate() {
            let t = if width > 1 { col as f32 / (width - 1) as f32 } else { 0.5 };
            let distance = self.cast(world, position, heading, t);
            clearance = clearance.min(distance);
            *proximity = 1.0 - (distance / self.max_range).clamp(0.0, 1.0);
        }
        if width < 2 {
            clearance = self.min_clearance(world, position, heading);
        }
        // Vertical falloff: the obstacle occupies the middle band of the
        // image, fading toward the top (sky/ceiling) and bottom (floor) rows.
        let falloff_of = |row: usize| {
            let v = if height > 1 { row as f32 / (height - 1) as f32 } else { 0.5 };
            1.0 - (2.0 * v - 1.0).abs() * 0.7
        };
        let (first, rest) = data[..plane].split_at_mut(width);
        for (row, pixels) in rest.chunks_exact_mut(width).enumerate() {
            let falloff = falloff_of(row + 1);
            for (pixel, &proximity) in pixels.iter_mut().zip(first.iter()) {
                *pixel = proximity * falloff;
            }
        }
        let falloff = falloff_of(0);
        for pixel in first {
            *pixel *= falloff;
        }
        let (depth, copies) = data.split_at_mut(plane);
        for copy in copies.chunks_exact_mut(plane) {
            copy.copy_from_slice(depth);
        }
        (frame, clearance)
    }

    /// The minimum clear distance across the field of view from `position`
    /// looking along `heading` — the quantity the reward shaping uses.
    ///
    /// It casts `width` rays spread edge to edge across the field of view,
    /// and at least the two edge rays.
    pub fn min_clearance(&self, world: &DroneWorld, position: Vec2, heading: f32) -> f32 {
        let rays = self.width.max(2);
        (0..rays)
            .map(|col| self.cast(world, position, heading, col as f32 / (rays - 1) as f32))
            .fold(self.max_range, f32::min)
    }

    /// The distance seen by the ray at fraction `t` of the way across the
    /// field of view, from `heading - fov / 2` (`t = 0`) to
    /// `heading + fov / 2` (`t = 1`).
    fn cast(&self, world: &DroneWorld, position: Vec2, heading: f32, t: f32) -> f32 {
        let angle = heading - self.fov / 2.0 + t * self.fov;
        world.ray_distance(position, Vec2::from_heading(angle), self.max_range)
    }
}

impl Default for DepthCamera {
    fn default() -> Self {
        DepthCamera::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_shape_matches_configuration() {
        assert_eq!(DepthCamera::paper().frame_shape(), [3, 103, 103]);
        assert_eq!(DepthCamera::scaled().frame_shape(), [1, 31, 31]);
        assert_eq!(DepthCamera::default(), DepthCamera::scaled());
    }

    #[test]
    fn render_produces_values_in_unit_range() {
        let world = DroneWorld::indoor_long();
        let cam = DepthCamera::scaled();
        let frame = cam.render(&world, world.start(), world.start_heading());
        assert_eq!(frame.shape(), &[1, 31, 31]);
        assert!(frame.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn closer_walls_look_brighter() {
        let world = DroneWorld::indoor_long();
        let cam = DepthCamera::scaled();
        // Facing the nearby side wall vs facing down the long corridor.
        let facing_wall = cam.render(&world, world.start(), std::f32::consts::FRAC_PI_2);
        let facing_corridor = cam.render(&world, world.start(), 0.0);
        let mean = |t: &Tensor| t.data().iter().sum::<f32>() / t.len() as f32;
        assert!(mean(&facing_wall) > mean(&facing_corridor));
    }

    #[test]
    fn min_clearance_is_bounded_by_the_corridor_width() {
        let world = DroneWorld::indoor_long();
        let cam = DepthCamera::scaled();
        let corridor_width = world.bounds().max.y - world.bounds().min.y;
        assert_eq!(corridor_width, 8.0);
        let clearance = cam.min_clearance(&world, world.start(), 0.0);
        assert!(clearance > 0.0);
        assert!(clearance <= corridor_width, "clearance {clearance} m");
    }

    #[test]
    fn multi_channel_frames_replicate_the_depth_plane() {
        let world = DroneWorld::indoor_long();
        let cam = DepthCamera { channels: 3, ..DepthCamera::scaled() };
        let frame = cam.render(&world, world.start(), 0.0);
        let plane = 31 * 31;
        assert_eq!(frame.data()[..plane], frame.data()[plane..2 * plane]);
    }

    /// The column-major renderer [`DepthCamera::render`] ran before the
    /// single pass: one ray per column, proximity and falloff recomputed per
    /// pixel. The oracle the pass's frames are pinned to.
    fn render_reference(
        cam: &DepthCamera,
        world: &DroneWorld,
        position: Vec2,
        heading: f32,
    ) -> Tensor {
        let mut frame = Tensor::zeros(&cam.frame_shape());
        let data = frame.data_mut();
        let plane = cam.height * cam.width;
        for col in 0..cam.width {
            let t = if cam.width > 1 { col as f32 / (cam.width - 1) as f32 } else { 0.5 };
            let angle = heading - cam.fov / 2.0 + t * cam.fov;
            let distance = world.ray_distance(position, Vec2::from_heading(angle), cam.max_range);
            let proximity = 1.0 - (distance / cam.max_range).clamp(0.0, 1.0);
            for row in 0..cam.height {
                let v = if cam.height > 1 { row as f32 / (cam.height - 1) as f32 } else { 0.5 };
                let falloff = 1.0 - (2.0 * v - 1.0).abs() * 0.7;
                let value = proximity * falloff;
                for ch in 0..cam.channels {
                    data[ch * plane + row * cam.width + col] = value;
                }
            }
        }
        frame
    }

    /// The reward-clearance loop [`DepthCamera::min_clearance`] ran as a
    /// second ray pass beside the renderer. The oracle the pass's clearance
    /// is pinned to.
    fn min_clearance_reference(
        cam: &DepthCamera,
        world: &DroneWorld,
        position: Vec2,
        heading: f32,
    ) -> f32 {
        let mut min = cam.max_range;
        for col in 0..cam.width.max(2) {
            let t = col as f32 / (cam.width.max(2) - 1) as f32;
            let angle = heading - cam.fov / 2.0 + t * cam.fov;
            min = min.min(world.ray_distance(position, Vec2::from_heading(angle), cam.max_range));
        }
        min
    }

    proptest::proptest! {
        #[test]
        fn capture_matches_the_two_pass_reference(
            seed in 0u64..u64::MAX,
            width in 0usize..4,
            height in 0usize..2,
            channels in 0usize..2,
        ) {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let cam = DepthCamera {
                width: [1, 2, 31, 103][width],
                height: [1, 31][height],
                channels: [1, 3][channels],
                ..DepthCamera::scaled()
            };
            let world = match rng.gen_range(0..3) {
                0 => DroneWorld::indoor_long(),
                1 => DroneWorld::indoor_vanleer(),
                _ => {
                    let pillars = rng.gen_range(0..10);
                    DroneWorld::random_corridor(pillars, &mut rng)
                }
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for _ in 0..4 {
                // Anywhere in or just outside the bounds, obstacles included,
                // at headings of many turns (`step` never wraps `heading`)
                // and at the axis-aligned headings whose edge or centre rays
                // run parallel to the walls.
                let bounds = world.bounds();
                let position = Vec2::new(
                    rng.gen_range(bounds.min.x - 1.0..bounds.max.x + 1.0),
                    rng.gen_range(bounds.min.y - 1.0..bounds.max.y + 1.0),
                );
                let heading = match rng.gen_range(0..4) {
                    0 => [0.0, cam.fov / 2.0, -cam.fov / 2.0][rng.gen_range(0..3usize)],
                    1 => rng.gen_range(-200.0f32..200.0),
                    _ => rng.gen_range(-std::f32::consts::PI..std::f32::consts::PI),
                };
                let (frame, clearance) = cam.capture(&world, position, heading);
                let want = render_reference(&cam, &world, position, heading);
                proptest::prop_assert_eq!(frame.shape(), want.shape());
                proptest::prop_assert_eq!(bits(frame.data()), bits(want.data()));
                proptest::prop_assert_eq!(
                    bits(cam.render(&world, position, heading).data()),
                    bits(want.data())
                );
                let want = min_clearance_reference(&cam, &world, position, heading);
                proptest::prop_assert_eq!(clearance.to_bits(), want.to_bits());
                proptest::prop_assert_eq!(
                    cam.min_clearance(&world, position, heading).to_bits(),
                    want.to_bits()
                );
            }
        }
    }
}
