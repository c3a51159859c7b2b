//! The prototype-shape database: how many own properties each DOM
//! prototype exposes, per platform era.
//!
//! Two layers:
//!
//! * **Authored shapes** for the 22 prototypes behind the paper's final
//!   *deviation-based* features (Table 8). These are hand-calibrated step
//!   tables whose era-to-era jumps reproduce the cluster structure of
//!   Table 3 and the Firefox-119 drift event of Table 6 (`DESIGN.md` §5).
//!   Magnitudes are realistic ballparks (Element ≈ 250–340 properties,
//!   WebGL2RenderingContext ≈ 550+, TextMetrics ≈ a dozen) so that the
//!   paper's observation that "some features had large values which could
//!   skew the model" (§6.4.1) holds and StandardScaler has real work to do.
//!
//! * **Procedural shapes** for the remaining prototypes of the 200-probe
//!   candidate list (Appendix-3). Each gets deterministic, hash-derived
//!   parameters reproducing the population statistics the paper reports
//!   from its first real-world data batch (§6.3): roughly 30% are constant
//!   across all modern browsers (and get dropped in pre-processing), a
//!   slice are sensitive to user configuration, and the rest evolve with
//!   the platform but more slowly than the authored 22.

use crate::eras::Era;

/// The 200 deviation-based candidate prototypes of Appendix-3, in the
/// paper's order. Index 0–21 are the prototypes of the final Table 8
/// feature set; the paper lists them first as well.
pub const DEVIATION_PROTOTYPES: [&str; 200] = [
    // -- block 1 ---------------------------------------------------------
    "Element",
    "Document",
    "HTMLElement",
    "SVGElement",
    "Navigator",
    "RTCIceCandidate",
    "SVGFEBlendElement",
    "TextMetrics",
    "Range",
    "StaticRange",
    "RTCRtpReceiver",
    "RTCPeerConnection",
    "AuthenticatorAttestationResponse",
    "FontFace",
    "HTMLVideoElement",
    "ResizeObserverEntry",
    "ShadowRoot",
    "RTCRtpSender",
    "PointerEvent",
    "Blob",
    "ServiceWorkerRegistration",
    "MediaSession",
    "PaymentResponse",
    "HTMLSourceElement",
    "Clipboard",
    "IDBTransaction",
    "Performance",
    "ServiceWorkerContainer",
    "HTMLIFrameElement",
    "PaymentRequest",
    "RTCRtpTransceiver",
    "IntersectionObserver",
    "CanvasRenderingContext2D",
    "CSSStyleSheet",
    "BaseAudioContext",
    "AudioContext",
    "HTMLLinkElement",
    "RTCDataChannel",
    "WritableStream",
    "DataTransferItem",
    "DocumentFragment",
    "HTMLMediaElement",
    // -- block 2 ---------------------------------------------------------
    "StorageManager",
    "HTMLSlotElement",
    "Text",
    "WebGL2RenderingContext",
    "HTMLInputElement",
    "WebGLRenderingContext",
    "HTMLButtonElement",
    "HTMLTextAreaElement",
    "HTMLSelectElement",
    "MediaRecorder",
    "CountQueuingStrategy",
    "BytelengthQueuingStrategy",
    "PerformanceMark",
    "PerformanceMeasure",
    "HTMLImageElement",
    "SpeechSynthesisEvent",
    "HTMLFormElement",
    "IDBCursor",
    "HTMLTemplateElement",
    "CSSRule",
    "Location",
    "PaymentAddress",
    "IntersectionObserverEntry",
    "TextEncoder",
    "ImageData",
    "HTMLMetaElement",
    "Crypto",
    "GamepadButton",
    "DOMMatrixReadOnly",
    "MediaKeys",
    "MessageEvent",
    "IDBFactory",
    "MediaDevices",
    "OfflineAudioContext",
    "URL",
    "ScriptProcessorNode",
    "SVGAnimatedNumberList",
    "ServiceWorker",
    "SensorErrorEvent",
    "SVGAnimatedPreserveAspectRatio",
    "Sensor",
    "SVGAnimatedRect",
    "SVGAnimatedString",
    "Selection",
    "SecurityPolicyViolationEvent",
    "XPathExpression",
    "SVGAnimatedNumber",
    "SVGAnimatedTransformList",
    "Screen",
    "RTCTrackEvent",
    "SVGAnimateElement",
    "SVGAnimateMotionElement",
    "RTCStatsReport",
    "RTCSessionDescription",
    "SVGAnimateTransformElement",
    "ScreenOrientation",
    "SVGAnimatedlengthList",
    "XPathResult",
    "SVGAngle",
    "SVGAElement",
    "SubtleCrypto",
    "SVGAnimatedAngle",
    // -- block 3 ---------------------------------------------------------
    "StyleSheetList",
    "StyleSheet",
    "StylePropertyMapReadOnly",
    "StylePropertyMap",
    "XPathEvaluator",
    "SVGAnimatedBoolean",
    "SharedWorker",
    "StorageEvent",
    "Storage",
    "StereoPannerNode",
    "SVGAnimatedEnumeration",
    "SpeechSynthesisUtterance",
    "SVGAnimatedInteger",
    "SVGAnimatedLength",
    "SpeechSynthesisErrorEvent",
    "SourceBufferList",
    "SourceBuffer",
    "WebGLFramebuffer",
    "PresentationConnection",
    "Plugin",
    "PluginArray",
    "PopStateEvent",
    "Presentation",
    "PresentationAvailability",
    "PresentationConnectionAvailableEvent",
    "PresentationConnectionCloseEvent",
    "PresentationConnectionList",
    "PresentationReceiver",
    "PresentationRequest",
    "ProcessingInstruction",
    "PictureInPictureWindow",
    "PermissionStatus",
    "PromiseRejectionEvent",
    "PerformanceNavigationTiming",
    "PerformanceObserver",
    "PerformanceObserverEntryList",
    "PerformancePaintTiming",
    "Permissions",
    "PerformanceResourceTiming",
    "PerformanceServerTiming",
    "PerformanceTiming",
    "PeriodicWave",
    "ProgressEvent",
    "PublicKeyCredential",
    "RTCDTMFToneChangeEvent",
    "RTCCertificate",
    "RTCDataChannelEvent",
    "RTCDTMFSender",
    "RTCPeerConnectionIceEvent",
    "Response",
    "PushManager",
    "PushSubscription",
    "PushSubscriptionOptions",
    "RadioNodeList",
    "ReadableStream",
    "ResizeObserver",
    "RelativeOrientationSensor",
    "RemotePlayback",
    "ReportingObserver",
    "Request",
    "SVGAnimationElement",
    "XMLHttpRequestEventTarget",
    // -- block 4 ---------------------------------------------------------
    "SVGCircleElement",
    "TreeWalker",
    "WebGLTexture",
    "TextDecoderStream",
    "TextEncoderStream",
    "WebGLSync",
    "TextTrack",
    "TextTrackCue",
    "TextTrackCueList",
    "WebGLShaderPrecisionFormat",
    "TextTrackList",
    "TimeRanges",
    "Touch",
    "TouchEvent",
    "TouchList",
    "TrackEvent",
    "TransformStream",
    "WebGLTransformFeedback",
    "TextDecoder",
    "WebGLUniformLocation",
    "SVGTitleElement",
    "WebGLVertexArrayObject",
    "SVGSymbolElement",
    "SVGTextContentElement",
    "SVGTextElement",
    "SVGTextPathElement",
    "SVGTextPositioningElement",
    "SVGTransform",
    "TaskAttributionTiming",
    "SVGTransformList",
    "SVGTSpanElement",
    "SVGUnitTypes",
    "SVGUseElement",
    "SVGViewElement",
];

/// The 22 prototypes of the paper's final deviation-based feature set
/// (Table 8, rows 1–22), in table order.
pub const TABLE8_PROTOTYPES: [&str; 22] = [
    "Element",
    "Document",
    "HTMLElement",
    "SVGElement",
    "SVGFEBlendElement",
    "TextMetrics",
    "Range",
    "StaticRange",
    "AuthenticatorAttestationResponse",
    "HTMLVideoElement",
    "ResizeObserverEntry",
    "ShadowRoot",
    "PointerEvent",
    "IntersectionObserver",
    "CanvasRenderingContext2D",
    "CSSStyleSheet",
    "AudioContext",
    "HTMLLinkElement",
    "HTMLMediaElement",
    "WebGL2RenderingContext",
    "WebGLRenderingContext",
    "CSSRule",
];

/// Authored per-era property counts for the Table 8 prototypes.
///
/// Column order follows [`Era::ALL`]:
/// `[EdgeHtml, Gecko46, Blink59, Gecko51, Blink69, Gecko93, Blink90,
///   Gecko101, Blink102, Blink110, Blink114, Blink119, Gecko119]`.
///
/// A value of 0 means the prototype does not exist in that era (the
/// fingerprinting script records 0 for a missing interface, exactly as a
/// `typeof X === "undefined"` guard would).
///
/// Calibration invariants (tested below):
/// * cluster-2 adjacency: |Blink59 − Gecko51| small,
/// * cluster-6 adjacency: |EdgeHtml − Gecko46| small,
/// * Gecko119 sits near Blink90 (the drift event of Table 6),
/// * all other neighbouring-era gaps are comfortably larger than the
///   within-cluster configuration noise (≤ 4 counts on a few features).
#[rustfmt::skip]
const AUTHORED: [(&str, [u32; 13]); 22] = [
    //                                    EdgH G46  B59  G51  B69  G93  B90  G101 B102 B110 B114 B119 G119
    ("Element",                          [231, 233, 258, 256, 272, 284, 295, 306, 318, 330, 341, 343, 296]),
    ("Document",                         [198, 200, 221, 220, 230, 238, 247, 255, 262, 270, 276, 276, 249]),
    ("HTMLElement",                      [ 55,  57,  66,  67,  74,  80,  87,  93, 100, 106, 112, 113,  88]),
    ("SVGElement",                       [ 28,  30,  38,  37,  43,  49,  54,  59,  65,  70,  74,  74,  55]),
    ("SVGFEBlendElement",                [  8,   8,  10,  10,  10,  11,  12,  12,  12,  13,  13,  13,  12]),
    ("TextMetrics",                      [  2,   2,   4,   4,   8,  10,  12,  12,  12,  13,  13,  13,  12]),
    ("Range",                            [ 30,  31,  36,  36,  38,  40,  42,  43,  44,  45,  46,  46,  42]),
    ("StaticRange",                      [  0,   0,   5,   5,   5,   6,   6,   6,   6,   7,   7,   7,   6]),
    ("AuthenticatorAttestationResponse", [  0,   0,   4,   4,   6,   7,   8,   9,  10,  11,  12,  12,   8]),
    ("HTMLVideoElement",                 [ 12,  13,  18,  17,  20,  22,  24,  25,  27,  28,  30,  30,  24]),
    ("ResizeObserverEntry",              [  0,   0,   3,   3,   4,   5,   6,   6,   6,   7,   7,   7,   6]),
    ("ShadowRoot",                       [  0,   0,   8,   8,  10,  12,  14,  15,  16,  17,  18,  18,  14]),
    ("PointerEvent",                     [ 10,   9,  11,  11,  13,  14,  15,  16,  17,  18,  18,  19,  15]),
    ("IntersectionObserver",             [  0,   0,   7,   7,   8,   8,   9,   9,  10,  11,  12,  12,   9]),
    ("CanvasRenderingContext2D",         [ 60,  62,  70,  69,  73,  76,  79,  81,  84,  86,  88,  89,  79]),
    ("CSSStyleSheet",                    [  8,   9,  11,  11,  12,  13,  15,  15,  16,  16,  17,  17,  15]),
    ("AudioContext",                     [  9,  10,  12,  12,  13,  14,  15,  15,  16,  16,  17,  17,  15]),
    ("HTMLLinkElement",                  [ 14,  15,  18,  18,  20,  21,  23,  24,  25,  26,  27,  27,  23]),
    ("HTMLMediaElement",                 [ 40,  42,  48,  47,  51,  54,  57,  59,  61,  63,  65,  65,  57]),
    ("WebGL2RenderingContext",           [  0,   0, 550, 548, 556, 560, 564, 568, 572, 576, 580, 580, 565]),
    ("WebGLRenderingContext",            [388, 390, 398, 396, 400, 403, 406, 408, 410, 412, 414, 414, 406]),
    ("CSSRule",                          [ 12,  13,  15,  15,  16,  17,  17,  18,  19,  19,  20,  20,  17]),
];

/// Looks up the own-property count of `proto` in `era`.
///
/// Returns `None` when the prototype does not exist in that era (callers
/// record 0), `Some(count)` otherwise. Unknown prototype names — anything
/// outside the Appendix-3 candidate list — return `None` in every era,
/// mirroring `typeof UnknownThing === "undefined"`.
pub fn own_property_count(proto: &str, era: Era) -> Option<u32> {
    let idx = era.index();
    if let Some((_, values)) = AUTHORED.iter().find(|(name, _)| *name == proto) {
        let v = values[idx];
        if v == 0 {
            return None;
        }
        // Per-(prototype, cluster-group) shape quirk in -2..=2: real
        // engines do not grow every interface in lock-step, so each
        // Table-3 group carries its own small idiosyncrasies. Constant
        // within a group, this decorrelates the features (giving the PCA
        // spectrum of Figure 2 its width) without moving any group's
        // internal geometry.
        let zig = (fnv1a_pair(fnv1a(proto.as_bytes()), 0x216C + era.group() as u64) % 5) as i64 - 2;
        return Some((v as i64 + zig).max(1) as u32);
    }
    if !DEVIATION_PROTOTYPES.contains(&proto) {
        return None;
    }
    procedural_count(proto, era)
}

/// Stability class of a procedural prototype, derived from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// Constant across every modern browser — the ~30% the paper drops in
    /// pre-processing (§6.3).
    Constant,
    /// Affected by user configuration (privacy flags, WebRTC/SW disables)
    /// — excluded by the paper after manual analysis (§6.3).
    ConfigSensitive,
    /// Evolves with the platform; clean but less discriminative than the
    /// authored Table 8 set.
    Evolving,
}

/// Prefixes of prototypes that common privacy configurations can alter:
/// Firefox `about:config` switches, WebRTC blockers, and similar (§6.3).
const CONFIG_SENSITIVE_PREFIXES: [&str; 8] = [
    "ServiceWorker",
    "RTC",
    "Push",
    "Presentation",
    "Sensor",
    "Payment",
    "Speech",
    "Plugin",
];

/// Classifies a prototype from the candidate list.
pub fn shape_class(proto: &str) -> ShapeClass {
    if AUTHORED.iter().any(|(name, _)| *name == proto) {
        return ShapeClass::Evolving;
    }
    if CONFIG_SENSITIVE_PREFIXES
        .iter()
        .any(|p| proto.starts_with(p))
    {
        return ShapeClass::ConfigSensitive;
    }
    // ~30% constants, chosen deterministically by name hash.
    if fnv1a(proto.as_bytes()) % 10 < 3 {
        ShapeClass::Constant
    } else {
        ShapeClass::Evolving
    }
}

fn procedural_count(proto: &str, era: Era) -> Option<u32> {
    let h = fnv1a(proto.as_bytes());
    // Availability: some interfaces only exist on richer platforms.
    let intro_richness = ((h >> 8) % 4) as f64 * 1.4; // 0 / 1.4 / 2.8 / 4.2
    if era.richness() < intro_richness {
        return None;
    }
    let base = 4 + (h % 30) as u32;
    match shape_class(proto) {
        ShapeClass::Constant => Some(base),
        ShapeClass::ConfigSensitive | ShapeClass::Evolving => {
            let slope = 0.3 + ((h >> 16) % 10) as f64 * 0.12; // 0.3 .. 1.38
            let quirk = (fnv1a_pair(h, era.index() as u64) % 3) as u32;
            Some(base + (slope * era.richness()).round() as u32 + quirk)
        }
    }
}

/// An FNV-1a *variant* over bytes; the deterministic seed of all
/// procedural shapes.
///
/// The multiplier is `0x1000_0000_01b3`, not the FNV-1a 64-bit prime
/// `0x100_0000_01b3` that `fingerprint::wire::fnv1a64` uses, so this is
/// deliberately not folded into that function: every prototype shape is
/// seeded from these exact values, and changing them would change every
/// generated fingerprint, every trained model and every committed
/// `results/exp_*.txt`. The reference vectors in the tests pin it.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a chaining of two hashes.
pub(crate) fn fnv1a_pair(a: u64, b: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&a.to_le_bytes());
    bytes[8..].copy_from_slice(&b.to_le_bytes());
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn fnv1a_variant_matches_its_reference_vectors() {
        // Not the published FNV-1a 64 vectors (0xaf63dc4c8601ec8c for
        // "a"): the multiplier differs, see `fnv1a`.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0xf8ac_2471_f739_67e8);
        assert_eq!(fnv1a_pair(1, 2), 0xdd7c_2803_63c8_e066);
    }

    #[test]
    fn candidate_list_has_200_unique_names() {
        let mut names: Vec<&str> = DEVIATION_PROTOTYPES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            200,
            "duplicate prototype names in the candidate list"
        );
    }

    #[test]
    fn table8_prototypes_are_all_candidates_and_authored() {
        for p in TABLE8_PROTOTYPES {
            assert!(
                DEVIATION_PROTOTYPES.contains(&p),
                "{p} missing from candidate list"
            );
            assert!(
                AUTHORED.iter().any(|(n, _)| *n == p),
                "{p} missing authored table"
            );
        }
        assert_eq!(AUTHORED.len(), TABLE8_PROTOTYPES.len());
    }

    #[test]
    fn authored_lookup_matches_table_up_to_group_quirk() {
        // Values follow the authored table within the ±2 per-group quirk.
        let e110 = own_property_count("Element", Era::Blink110).unwrap();
        assert!(e110.abs_diff(330) <= 2, "got {e110}");
        let e101 = own_property_count("Element", Era::Gecko101).unwrap();
        assert!(e101.abs_diff(306) <= 2, "got {e101}");
        assert_eq!(own_property_count("StaticRange", Era::EdgeHtml), None);
        assert_eq!(
            own_property_count("WebGL2RenderingContext", Era::Gecko46),
            None
        );
    }

    #[test]
    fn group_quirk_is_constant_within_a_cluster_group() {
        // Eras sharing a Table-3 group must share the quirk, so the
        // cross-vendor merges stay tight. Compare the quirk offsets of
        // paired eras: (value - table) must match.
        for (name, v) in AUTHORED {
            for (a, b) in [(Era::EdgeHtml, Era::Gecko46), (Era::Blink59, Era::Gecko51)] {
                let (ta, tb) = (v[a.index()], v[b.index()]);
                if ta == 0 || tb == 0 {
                    continue;
                }
                let qa = own_property_count(name, a).unwrap() as i64 - ta as i64;
                let qb = own_property_count(name, b).unwrap() as i64 - tb as i64;
                assert_eq!(qa, qb, "{name}: quirk differs within group {a:?}/{b:?}");
            }
        }
    }

    #[test]
    fn unknown_prototype_is_absent_everywhere() {
        for era in Era::ALL {
            assert_eq!(own_property_count("TotallyMadeUp", era), None);
        }
    }

    #[test]
    fn cluster2_adjacency_blink59_gecko51() {
        // The within-cluster gap must stay small on every authored feature,
        // or cluster 2 (Chrome 59-68 + Firefox 51-92) could not form.
        for (name, v) in AUTHORED {
            let gap = v[Era::Blink59.index()].abs_diff(v[Era::Gecko51.index()]);
            assert!(gap <= 3, "{name}: Blink59 vs Gecko51 gap {gap} too wide");
        }
    }

    #[test]
    fn cluster6_adjacency_edgehtml_gecko46() {
        // Small enough that no single feature can pull the group apart
        // after scaling (the paper's cluster 6 merges them).
        for (name, v) in AUTHORED {
            let gap = v[Era::EdgeHtml.index()].abs_diff(v[Era::Gecko46.index()]);
            assert!(gap <= 3, "{name}: EdgeHtml vs Gecko46 gap {gap} too wide");
        }
    }

    #[test]
    fn gecko119_lands_near_blink90() {
        // Table 6: Firefox 119 flips into the Chrome/Edge 90-101 cluster.
        let mut total_gap_to_b90 = 0u32;
        let mut total_gap_to_g101 = 0u32;
        for (_, v) in AUTHORED {
            total_gap_to_b90 += v[Era::Gecko119.index()].abs_diff(v[Era::Blink90.index()]);
            total_gap_to_g101 += v[Era::Gecko119.index()].abs_diff(v[Era::Gecko101.index()]);
        }
        assert!(
            total_gap_to_b90 < total_gap_to_g101,
            "Gecko119 must be nearer Blink90 ({total_gap_to_b90}) than its own \
             predecessor era ({total_gap_to_g101})"
        );
    }

    #[test]
    fn era_steps_are_monotone_for_growing_interfaces() {
        // Within one engine family, counts never shrink (interfaces only
        // gain properties in our model, except the Gecko119 overhaul which
        // replaces the Element-adjacent shapes wholesale).
        let blink = [
            Era::Blink59,
            Era::Blink69,
            Era::Blink90,
            Era::Blink102,
            Era::Blink110,
            Era::Blink114,
            Era::Blink119,
        ];
        for (name, v) in AUTHORED {
            for w in blink.windows(2) {
                assert!(
                    v[w[1].index()] >= v[w[0].index()],
                    "{name}: Blink counts must be monotone at {:?}",
                    w
                );
            }
        }
    }

    #[test]
    fn procedural_counts_are_deterministic_and_monotone_in_richness() {
        let name = "TreeWalker";
        let a = own_property_count(name, Era::Blink110);
        let b = own_property_count(name, Era::Blink110);
        assert_eq!(a, b);
        // Evolving features grow (up to quirk noise of 2) with richness.
        if shape_class(name) == ShapeClass::Evolving {
            let old = own_property_count(name, Era::Blink59);
            let new = own_property_count(name, Era::Blink114);
            if let (Some(o), Some(n)) = (old, new) {
                assert!(n + 2 >= o, "{name} should not shrink much: {o} -> {n}");
            }
        }
    }

    #[test]
    fn about_30_percent_of_procedural_names_are_constant() {
        let constant = DEVIATION_PROTOTYPES
            .iter()
            .filter(|p| shape_class(p) == ShapeClass::Constant)
            .count();
        // ~30% of the non-authored 178, i.e. roughly 40-70 names.
        assert!(
            (30..=80).contains(&constant),
            "expected roughly 30% constants, got {constant}/200"
        );
    }

    #[test]
    fn config_sensitive_covers_serviceworker_and_rtc() {
        assert_eq!(
            shape_class("ServiceWorkerRegistration"),
            ShapeClass::ConfigSensitive
        );
        assert_eq!(
            shape_class("RTCPeerConnection"),
            ShapeClass::ConfigSensitive
        );
        assert_eq!(shape_class("PushManager"), ShapeClass::ConfigSensitive);
        assert_eq!(shape_class("Element"), ShapeClass::Evolving);
    }

    #[test]
    fn chrome_and_edge_same_version_identical() {
        for proto in DEVIATION_PROTOTYPES {
            let chrome = own_property_count(proto, Era::of(Engine::blink(110)));
            let edge = own_property_count(proto, Era::of(Engine::blink(110)));
            assert_eq!(chrome, edge);
        }
    }
}
