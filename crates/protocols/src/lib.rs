//! # netdsl-protocols — protocols built with the netdsl DSL
//!
//! End-to-end demonstrations of the paper's position: every protocol here
//! defines its packets with [`netdsl_core::packet::PacketSpec`] (semantic
//! constraints included), its behaviour with the typestate and/or reified
//! state-machine embeddings, and runs over the deterministic
//! [`netdsl_netsim`] simulator.
//!
//! * [`arq`] — the paper's §3.4 stop-and-wait ARQ, with the faithful
//!   typestate sender (`SEND`/`OK`/`FAIL`/`TIMEOUT`/`FINISH`, `NextSent`);
//! * [`gbn`] / [`sr`] — Go-Back-N and Selective Repeat sliding-window
//!   extensions (the "library of functionality" the paper wants, §1.1);
//! * [`handshake`] — a three-way connection handshake as a reified,
//!   model-checkable spec;
//! * [`ipv4`] — the RFC 791 header of the paper's Figure 1, declaratively;
//! * [`udp`] — the RFC 768 header with computed length and checksum;
//! * [`tftp`] — a block-transfer application protocol on top of ARQ;
//! * [`baseline`] — a deliberately C-sockets-style hand-written ARQ used
//!   as the error-handling-LoC comparator (§1: "50% or more of the
//!   code…"), behaviourally equivalent to [`arq`];
//! * [`driver`] — the event-loop harness connecting endpoints to the
//!   simulator;
//! * [`scenario`] — the [`SuiteDriver`](scenario::SuiteDriver) that
//!   plugs this whole suite into declarative
//!   [`netdsl_netsim::campaign`] sweeps;
//! * [`multiplex`] — the
//!   [`MultiSessionDriver`](multiplex::MultiSessionDriver) that runs
//!   whole batches of scenarios back to back on **one** simulator,
//!   reset in place between sessions, bit-identical to standalone runs
//!   (the million-session path of streaming campaigns).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
pub mod baseline;
pub mod codec;
pub mod driver;
pub mod dv;
pub mod gbn;
pub mod golden;
pub mod handshake;
pub mod ipv4;
pub mod multiplex;
pub mod scenario;
pub mod sr;
pub mod tftp;
pub mod udp;
pub mod window;
