//! # mb-kb
//!
//! Knowledge-base substrate for metablink-rs.
//!
//! A [`KnowledgeBase`] stores entities (title + description), domain
//! partitions, relations and fact triples, and maintains the lookup
//! structures entity linking needs: an exact-title index (for the Name
//! Matching baseline and exact-match supervision), an alias table
//! (available for *source* domains only, mirroring the paper's premise
//! that target-domain dictionaries lack such resources), and an inverted
//! token index over titles (for IR-style candidate generation).

#![warn(missing_docs)]

pub mod entity;
pub mod index;
pub mod store;

pub use entity::{DomainId, Entity, EntityId, RelationId, Triple};
pub use store::{KbBuilder, KnowledgeBase};
