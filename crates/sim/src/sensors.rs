//! Vehicle-mounted sensors: 360° ray-cast lidar and a coarse occupancy
//! "camera".
//!
//! The paper's high-level state is `[lidar, speed, laneID]` and its
//! low-level state is `[image, speed, laneID]` (Sec. IV-B/IV-C). The lidar
//! casts `beams` rays against other vehicles' bounding boxes and the track
//! walls; the camera rasterizes a forward window into an occupancy grid
//! that stands in for the testbed's RGB camera after the paper's
//! convolutional encoding. Both render in [`crate::batch::BatchWorld`];
//! this module holds their configuration and the camera's cell values.

/// Configuration of the ray-cast lidar.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LidarConfig {
    /// Number of evenly spaced beams over 360°.
    pub beams: usize,
    /// Maximum sensing range in metres; returns are normalized by this.
    pub max_range: f32,
}

impl Default for LidarConfig {
    fn default() -> Self {
        Self {
            beams: 16,
            max_range: 2.0,
        }
    }
}

/// Configuration of the forward occupancy camera.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CameraConfig {
    /// Grid height (forward cells).
    pub rows: usize,
    /// Grid width (lateral cells).
    pub cols: usize,
    /// Forward extent of the window in metres.
    pub forward_range: f32,
    /// Lateral half-extent of the window in metres.
    pub lateral_half: f32,
}

impl Default for CameraConfig {
    fn default() -> Self {
        Self {
            rows: 12,
            cols: 12,
            forward_range: 1.8,
            lateral_half: 0.6,
        }
    }
}

impl CameraConfig {
    /// Flattened image length (`1 × rows × cols`).
    pub fn image_len(&self) -> usize {
        self.rows * self.cols
    }
}

/// Cell value for out-of-track area.
pub const CAMERA_OFF_TRACK: f32 = 0.5;
/// Cell value for another vehicle.
pub const CAMERA_VEHICLE: f32 = 1.0;
