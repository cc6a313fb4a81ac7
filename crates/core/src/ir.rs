//! A layer-level intermediate representation of inference networks.
//!
//! The NPU performance simulator (`sesr-npu`) consumes this IR: each layer
//! exposes its MAC count and the byte sizes of its input/output feature
//! maps and weights, which is exactly the information a roofline-style
//! accelerator model needs. Builders are provided for the collapsed SESR
//! architecture; the baselines crate adds FSRCNN and friends.

use serde::{Deserialize, Serialize};

/// Numeric precision assumed by byte accounting. Mobile NPUs run SISR
/// networks in int8 (1 byte/element), which is what the paper's DRAM
/// numbers correspond to.
pub const BYTES_PER_ELEMENT: u64 = 1;

/// One inference-time layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerIr {
    /// Dense 2-D convolution (stride 1, same padding unless noted).
    Conv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Input (= output) feature-map height.
        h: usize,
        /// Input (= output) feature-map width.
        w: usize,
    },
    /// Transposed convolution with stride (FSRCNN's deconvolution head).
    Deconv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Input feature-map height.
        h: usize,
        /// Input feature-map width.
        w: usize,
        /// Upsampling stride.
        stride: usize,
    },
    /// Depth-to-space rearrangement (no MACs, pure data movement).
    DepthToSpace {
        /// Input channels (must be divisible by `r^2`).
        c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Block size.
        r: usize,
    },
    /// Elementwise addition of two feature maps (long residuals). Costs no
    /// MACs but doubles input traffic.
    Add {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
}

impl LayerIr {
    /// Multiply-accumulate operations performed by this layer.
    pub fn macs(&self) -> u64 {
        match *self {
            LayerIr::Conv {
                cin,
                cout,
                kh,
                kw,
                h,
                w,
            } => (cin * cout * kh * kw) as u64 * (h * w) as u64,
            LayerIr::Deconv {
                cin,
                cout,
                kh,
                kw,
                h,
                w,
                stride,
            } => {
                // SISR-literature convention (used by the paper's FSRCNN
                // MAC figures): kh*kw*cin*cout per *output* pixel.
                (cin * cout * kh * kw) as u64 * (h * stride * w * stride) as u64
            }
            LayerIr::DepthToSpace { .. } | LayerIr::Add { .. } => 0,
        }
    }

    /// Bytes of input feature map(s) read.
    pub fn input_bytes(&self) -> u64 {
        match *self {
            LayerIr::Conv { cin, h, w, .. } => (cin * h * w) as u64 * BYTES_PER_ELEMENT,
            LayerIr::Deconv { cin, h, w, .. } => (cin * h * w) as u64 * BYTES_PER_ELEMENT,
            LayerIr::DepthToSpace { c, h, w, .. } => (c * h * w) as u64 * BYTES_PER_ELEMENT,
            // Residual adds read both operands.
            LayerIr::Add { c, h, w } => 2 * (c * h * w) as u64 * BYTES_PER_ELEMENT,
        }
    }

    /// Bytes of output feature map written.
    pub fn output_bytes(&self) -> u64 {
        match *self {
            LayerIr::Conv { cout, h, w, .. } => (cout * h * w) as u64 * BYTES_PER_ELEMENT,
            LayerIr::Deconv {
                cout, h, w, stride, ..
            } => (cout * h * stride * w * stride) as u64 * BYTES_PER_ELEMENT,
            LayerIr::DepthToSpace { c, h, w, .. } => (c * h * w) as u64 * BYTES_PER_ELEMENT,
            LayerIr::Add { c, h, w } => (c * h * w) as u64 * BYTES_PER_ELEMENT,
        }
    }

    /// Bytes of weights read.
    pub fn weight_bytes(&self) -> u64 {
        match *self {
            LayerIr::Conv {
                cin, cout, kh, kw, ..
            }
            | LayerIr::Deconv {
                cin, cout, kh, kw, ..
            } => (cin * cout * kh * kw) as u64 * BYTES_PER_ELEMENT,
            LayerIr::DepthToSpace { .. } | LayerIr::Add { .. } => 0,
        }
    }

    /// Largest single feature-map tensor touched by this layer, in
    /// elements (the paper's "largest activation tensor", Sec. 5.6 —
    /// `H x W x 56` for FSRCNN vs `H x W x 16` for SESR-M5).
    pub fn peak_activation_elements(&self) -> u64 {
        match *self {
            // A residual add reads two maps, but each is a separate tensor.
            LayerIr::Add { c, h, w } => (c * h * w) as u64,
            _ => self.input_bytes().max(self.output_bytes()) / BYTES_PER_ELEMENT,
        }
    }
}

/// An inference network as a layer list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkIr {
    /// Display name (e.g. `"SESR-M5"`).
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerIr>,
}

impl NetworkIr {
    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerIr::macs).sum()
    }

    /// Total weight bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(LayerIr::weight_bytes).sum()
    }

    /// Largest activation tensor anywhere in the network, in elements —
    /// the quantity the paper identifies as driving DRAM traffic
    /// (Sec. 5.6: FSRCNN's `H x W x 56` vs SESR's `H x W x 16`).
    pub fn peak_activation_elements(&self) -> u64 {
        self.layers
            .iter()
            .map(LayerIr::peak_activation_elements)
            .max()
            .unwrap_or(0)
    }
}

/// One convolution of a collapsed SESR chain: `(cin, cout, kh, kw)`.
pub(crate) type ChainConv = (usize, usize, usize, usize);

/// Builds the IR of a collapsed SESR chain (Fig. 2(d)) for an `h x w`
/// low-resolution input: `convs` in execution order (the first stage,
/// the intermediate stages, the head), the long feature residual before
/// the head when `feature_residual`, the input-to-output residual after
/// it when `input_residual`, then depth-to-space up to `scale`.
///
/// # Panics
///
/// Panics if `convs` has fewer than two layers or `scale` is not 2 or 4.
pub(crate) fn sesr_chain_ir(
    convs: &[ChainConv],
    scale: usize,
    feature_residual: bool,
    input_residual: bool,
    h: usize,
    w: usize,
) -> NetworkIr {
    assert!(scale == 2 || scale == 4, "scale must be 2 or 4");
    let conv = |&(cin, cout, kh, kw): &ChainConv| LayerIr::Conv {
        cin,
        cout,
        kh,
        kw,
        h,
        w,
    };
    let Some((head, body @ [first, ..])) = convs.split_last() else {
        panic!("need at least first and last stages");
    };
    let mut layers: Vec<LayerIr> = body.iter().map(conv).collect();
    if feature_residual {
        layers.push(LayerIr::Add { c: head.0, h, w });
    }
    layers.push(conv(head));
    let c = head.1;
    if input_residual {
        layers.push(LayerIr::Add { c, h, w });
    }
    layers.push(LayerIr::DepthToSpace { c, h, w, r: 2 });
    if scale == 4 {
        layers.push(LayerIr::DepthToSpace {
            c: c / 4,
            h: h * 2,
            w: w * 2,
            r: 2,
        });
    }
    NetworkIr {
        name: if first.1 == 32 {
            "SESR-XL".into()
        } else {
            format!("SESR-M{}", convs.len() - 2)
        },
        layers,
    }
}

/// Builds the IR of a collapsed SESR network with `f` feature channels
/// and `m` intermediate stages from the paper's closed-form shape; the
/// long feature residual is always present.
///
/// `input_residual` adds the input-to-output residual's feature-map
/// traffic; the hardware-efficient variant (Sec. 5.5) omits it.
///
/// # Panics
///
/// Panics if `scale` is not 2 or 4.
pub fn sesr_ir(
    f: usize,
    m: usize,
    scale: usize,
    input_residual: bool,
    h: usize,
    w: usize,
) -> NetworkIr {
    let head = crate::macs::head_channels(scale);
    let mut convs = vec![(1, f, 5, 5)];
    convs.extend(std::iter::repeat_n((f, f, 3, 3), m));
    convs.push((f, head, 5, 5));
    sesr_chain_ir(&convs, scale, true, input_residual, h, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macs::{sesr_macs_from_1080p, sesr_weight_params};

    #[test]
    fn conv_macs_match_closed_form() {
        let l = LayerIr::Conv {
            cin: 16,
            cout: 16,
            kh: 3,
            kw: 3,
            h: 10,
            w: 20,
        };
        assert_eq!(l.macs(), 16 * 16 * 9 * 200);
    }

    #[test]
    fn sesr_ir_macs_match_macs_module() {
        // Conv MACs of the IR must equal H*W*P from the closed form.
        for (f, m, scale) in [(16, 5, 2), (16, 11, 2), (32, 11, 2), (16, 5, 4)] {
            let ir = sesr_ir(f, m, scale, true, 1080, 1920);
            assert_eq!(
                ir.total_macs(),
                sesr_macs_from_1080p(f, m, scale),
                "f={f} m={m} scale={scale}"
            );
        }
    }

    #[test]
    fn sesr_ir_weight_bytes_match_param_count() {
        let ir = sesr_ir(16, 5, 2, true, 64, 64);
        assert_eq!(
            ir.total_weight_bytes(),
            sesr_weight_params(16, 5, 2) as u64 * BYTES_PER_ELEMENT
        );
    }

    #[test]
    fn peak_activation_is_f_channels() {
        // Paper Sec. 5.6: SESR-M5's largest tensor is H x W x 16.
        let ir = sesr_ir(16, 5, 2, true, 1080, 1920);
        assert_eq!(ir.peak_activation_elements(), 16 * 1080 * 1920);
    }

    #[test]
    fn x4_has_two_depth_to_space_layers() {
        let ir = sesr_ir(16, 5, 4, true, 100, 100);
        let d2s = ir
            .layers
            .iter()
            .filter(|l| matches!(l, LayerIr::DepthToSpace { .. }))
            .count();
        assert_eq!(d2s, 2);
    }

    #[test]
    fn model_ir_follows_the_models_own_layers_and_residuals() {
        use crate::model::{Sesr, SesrConfig};
        let cfg = SesrConfig::m(3).with_expanded(4);
        let full = Sesr::new(cfg).collapse();
        assert_eq!(full.ir(32, 48), sesr_ir(16, 3, 2, true, 32, 48));

        let plain = Sesr::new(SesrConfig {
            feature_residual: false,
            ..cfg
        })
        .collapse();
        let ir = plain.ir(32, 48);
        // Only the input residual's add after the head remains.
        let adds: Vec<&LayerIr> = ir
            .layers
            .iter()
            .filter(|l| matches!(l, LayerIr::Add { .. }))
            .collect();
        assert_eq!(adds, [&LayerIr::Add { c: 4, h: 32, w: 48 }]);
        assert_eq!(ir.total_macs(), full.ir(32, 48).total_macs());
        let traffic = |ir: &NetworkIr| -> u64 { ir.layers.iter().map(LayerIr::input_bytes).sum() };
        assert_eq!(
            traffic(&full.ir(32, 48)) - traffic(&ir),
            2 * 16 * 32 * 48 * BYTES_PER_ELEMENT
        );
    }

    #[test]
    fn depth_to_space_and_add_have_no_macs() {
        assert_eq!(
            LayerIr::DepthToSpace {
                c: 4,
                h: 8,
                w: 8,
                r: 2
            }
            .macs(),
            0
        );
        assert_eq!(LayerIr::Add { c: 4, h: 8, w: 8 }.macs(), 0);
    }

    #[test]
    fn deconv_output_bytes_scale_with_stride() {
        let l = LayerIr::Deconv {
            cin: 56,
            cout: 1,
            kh: 9,
            kw: 9,
            h: 10,
            w: 10,
            stride: 2,
        };
        assert_eq!(l.output_bytes(), 400 * BYTES_PER_ELEMENT);
    }
}
