use serde::{Deserialize, Serialize};

/// A minimal single-precision complex number used by the FFT routines.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct Complex32 {
    /// Real part.
    re: f32,
    /// Imaginary part.
    im: f32,
}

impl Complex32 {
    /// Creates a complex number from real and imaginary parts.
    pub(crate) fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// The complex number `e^{iθ}`.
    pub(crate) fn from_angle(theta: f32) -> Self {
        Complex32 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude `|z|`.
    pub(crate) fn abs(self) -> f32 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

impl std::ops::Add for Complex32 {
    type Output = Complex32;
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex32 {
    type Output = Complex32;
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex32 {
    type Output = Complex32;
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::fmt::Display for Complex32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex32::new(1.0, 2.0);
        let b = Complex32::new(3.0, -1.0);
        assert_eq!(a + b, Complex32::new(4.0, 1.0));
        assert_eq!(a - b, Complex32::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex32::new(5.0, 5.0));
    }

    #[test]
    fn unit_circle() {
        let z = Complex32::from_angle(std::f32::consts::PI / 2.0);
        assert!(z.re.abs() < 1e-6);
        assert!((z.im - 1.0).abs() < 1e-6);
        assert!((z.abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex32::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex32::new(1.0, -2.0).to_string(), "1-2i");
    }
}
