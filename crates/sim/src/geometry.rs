//! Minimal 2D geometry: the vector type the simulator's kernels use.
//!
//! The simulator works in a "straightened" Frenet frame — `x` is the
//! longitudinal coordinate along the track (wrapped by the caller) and `y`
//! the lateral offset — so plain Euclidean geometry suffices here.

/// A 2D vector / point.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec2 {
    /// Longitudinal component.
    pub x: f32,
    /// Lateral component.
    pub y: f32,
}

impl Vec2 {
    /// Creates a vector from components.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    /// Component-wise subtraction.
    pub fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }

    /// Component-wise addition.
    pub fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }

    /// Scalar multiple.
    pub fn scale(self, k: f32) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }

    /// Rotation by `angle` radians (counter-clockwise).
    pub fn rotated(self, angle: f32) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f32::consts::FRAC_PI_2);
        assert!((v.x).abs() < 1e-6 && (v.y - 1.0).abs() < 1e-6);
    }
}
