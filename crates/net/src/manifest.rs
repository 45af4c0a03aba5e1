//! Session admission manifests: the declarative payload of a
//! [`WireFrame::Admit`](crate::WireFrame::Admit) frame.
//!
//! A manifest names **what to serve** (a corpus scenario by name and seed,
//! or a committed `eventor-fuzzworld/1` spec inline) and **which backend**
//! to build the session on. The server resolves it through the exact
//! construction path the golden digest table was computed with
//! ([`eventor_scenarios::session_for_profile`]), so a remotely admitted
//! session is bit-identical to its in-process twin.

use crate::wire::{code, WireError};
use eventor_core::EventorSession;
use eventor_emvs::EmvsConfig;
use eventor_events::codec::{self, put_str, CodecError};
use eventor_geom::CameraModel;
use eventor_scenarios::{find, session_for_profile, BackendKind, WorldSpec};

/// What a session should reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestSource {
    /// A corpus scenario, addressed by its catalog name and a seed.
    Scenario {
        /// Catalog name (`eventor_scenarios::find`).
        name: String,
        /// World seed.
        seed: u64,
    },
    /// An inline `eventor-fuzzworld/1` spec (the text form of
    /// [`WorldSpec`]).
    Spec {
        /// The spec text, header line included.
        text: String,
    },
}

/// The admission manifest: source plus execution backend.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionManifest {
    /// Execution path to build the session on.
    pub backend: BackendKind,
    /// What to reconstruct.
    pub source: ManifestSource,
}

const BACKEND_SOFTWARE: u8 = 0;
const BACKEND_SHARDED: u8 = 1;
const BACKEND_COSIM: u8 = 2;
const SOURCE_SCENARIO: u8 = 1;
const SOURCE_SPEC: u8 = 2;

impl SessionManifest {
    /// Serializes the manifest as an `Admit` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(match self.backend {
            BackendKind::Software | BackendKind::Serve => BACKEND_SOFTWARE,
            BackendKind::Sharded => BACKEND_SHARDED,
            BackendKind::Cosim => BACKEND_COSIM,
        });
        match &self.source {
            ManifestSource::Scenario { name, seed } => {
                out.push(SOURCE_SCENARIO);
                put_str(&mut out, name);
                out.extend_from_slice(&seed.to_le_bytes());
            }
            ManifestSource::Spec { text } => {
                out.push(SOURCE_SPEC);
                put_str(&mut out, text);
            }
        }
        out
    }

    /// Parses an `Admit` payload. Structural problems (unknown tags, bad
    /// lengths, non-UTF-8 text) are [`WireError::Malformed`] — the server
    /// closes the connection on those; *semantic* problems (an unknown
    /// scenario name, an out-of-range spec) are diagnosed later by
    /// [`Self::resolve`] and rejected without dropping the connection.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] naming the structural violation.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        codec::read_all(payload, "manifest", |r| {
            let backend = match r.u8("backend tag")? {
                BACKEND_SOFTWARE => BackendKind::Software,
                BACKEND_SHARDED => BackendKind::Sharded,
                BACKEND_COSIM => BackendKind::Cosim,
                other => return Err(CodecError::invalid(format!("unknown backend tag {other}"))),
            };
            let source_tag = r.u8("source tag")?;
            let text = r.string("source text")?;
            let source = match source_tag {
                SOURCE_SCENARIO => ManifestSource::Scenario {
                    name: text,
                    seed: r.u64("scenario seed")?,
                },
                SOURCE_SPEC => ManifestSource::Spec { text },
                other => return Err(CodecError::invalid(format!("unknown source tag {other}"))),
            };
            Ok(Self { backend, source })
        })
        .map_err(|e| WireError::Malformed {
            reason: format!("manifest: {e}"),
        })
    }

    /// The admission profile this manifest describes, **without**
    /// simulating any events.
    ///
    /// # Errors
    ///
    /// [`WireError::Rejected`] with [`code::UNKNOWN_SCENARIO`] or
    /// [`code::BAD_SPEC`] — semantic refusals that leave the connection
    /// usable.
    pub fn profile(&self) -> Result<(CameraModel, EmvsConfig), WireError> {
        match &self.source {
            ManifestSource::Scenario { name, seed } => match find(name) {
                Some(scenario) => Ok(scenario.session_profile(*seed)),
                None => Err(WireError::Rejected {
                    code: code::UNKNOWN_SCENARIO,
                    reason: format!("unknown scenario {name:?}"),
                }),
            },
            ManifestSource::Spec { text } => match WorldSpec::parse(text) {
                Ok(spec) => Ok(spec.session_profile()),
                Err(e) => Err(WireError::Rejected {
                    code: code::BAD_SPEC,
                    reason: e.to_string(),
                }),
            },
        }
    }

    /// Builds the session this manifest admits, through the golden
    /// construction path.
    ///
    /// # Errors
    ///
    /// [`WireError::Rejected`] for semantic refusals (unknown scenario, bad
    /// spec, or a profile the session builder itself refuses).
    pub fn resolve(&self) -> Result<EventorSession, WireError> {
        let (camera, config) = self.profile()?;
        session_for_profile(camera, config, self.backend).map_err(|e| WireError::Rejected {
            code: code::BAD_SPEC,
            reason: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_scenarios::Scenario;

    #[test]
    fn manifests_round_trip() {
        let spec_text = WorldSpec::generate(42, 0).to_text();
        let manifests = [
            SessionManifest {
                backend: BackendKind::Software,
                source: ManifestSource::Scenario {
                    name: "shake_closeup".into(),
                    seed: 99,
                },
            },
            SessionManifest {
                backend: BackendKind::Sharded,
                source: ManifestSource::Spec { text: spec_text },
            },
        ];
        for m in &manifests {
            let decoded = SessionManifest::decode(&m.encode()).unwrap();
            assert_eq!(&decoded, m);
        }
    }

    #[test]
    fn serve_backend_encodes_as_software() {
        // The wire protocol has no "serve" backend: the server *is* the
        // serving tier, and both kinds build the same software session.
        let m = SessionManifest {
            backend: BackendKind::Serve,
            source: ManifestSource::Scenario {
                name: "orbit_dense".into(),
                seed: 1,
            },
        };
        let decoded = SessionManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded.backend, BackendKind::Software);
    }

    #[test]
    fn structural_and_semantic_errors_are_distinct() {
        assert!(matches!(
            SessionManifest::decode(&[]).unwrap_err(),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            SessionManifest::decode(&[9, SOURCE_SCENARIO, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
                .unwrap_err(),
            WireError::Malformed { .. }
        ));
        let unknown = SessionManifest {
            backend: BackendKind::Software,
            source: ManifestSource::Scenario {
                name: "no_such_world".into(),
                seed: 0,
            },
        };
        assert!(matches!(
            unknown.profile().unwrap_err(),
            WireError::Rejected {
                code: code::UNKNOWN_SCENARIO,
                ..
            }
        ));
        let bad_spec = SessionManifest {
            backend: BackendKind::Software,
            source: ManifestSource::Spec {
                text: "not a fuzzworld".into(),
            },
        };
        assert!(matches!(
            bad_spec.profile().unwrap_err(),
            WireError::Rejected {
                code: code::BAD_SPEC,
                ..
            }
        ));
    }

    #[test]
    fn corpus_manifest_resolves_to_the_profile_camera() {
        let scenario = find("dolly_corridor").unwrap();
        let m = SessionManifest {
            backend: BackendKind::Software,
            source: ManifestSource::Scenario {
                name: "dolly_corridor".into(),
                seed: scenario.default_seed(),
            },
        };
        assert!(m.resolve().is_ok());
        let (camera, _) = m.profile().unwrap();
        assert_eq!(camera, scenario.session_profile(scenario.default_seed()).0);
    }
}
