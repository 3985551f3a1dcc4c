//! Error type for the serving subsystem.

use std::fmt;

/// Everything that can go wrong between a request and its response.
#[derive(Debug)]
pub enum ServeError {
    /// The request payload is malformed (wrong shape, wrong byte count).
    BadInput(String),
    /// The service configuration is unusable (e.g. a model whose engine
    /// cannot be built, or a thread that cannot be spawned).
    BadConfig(String),
    /// The service is shutting down (or has shut down); the request was
    /// not processed.
    Shutdown(String),
    /// A batch worker failed while evaluating the model.
    Worker(String),
    /// The admission queue is full and the service is configured to shed
    /// load instead of blocking; retry with backoff.
    QueueFull,
    /// The request's deadline passed while it was still queued; it was
    /// shed without being evaluated.
    DeadlineExceeded,
    /// The connection sent no bytes for longer than the configured
    /// idle-read deadline (slowloris defense); it was disconnected.
    IdleTimeout(std::time::Duration),
    /// A socket-level failure in the TCP protocol layer.
    Io(std::io::Error),
    /// A malformed message on the TCP wire.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadInput(msg) => write!(f, "bad request: {msg}"),
            ServeError::BadConfig(msg) => write!(f, "bad serve config: {msg}"),
            ServeError::Shutdown(msg) => write!(f, "service shutting down: {msg}"),
            ServeError::Worker(msg) => write!(f, "batch worker failed: {msg}"),
            ServeError::QueueFull => {
                write!(
                    f,
                    "queue full: admission queue is shedding load, retry with backoff"
                )
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded: request shed before evaluation")
            }
            ServeError::IdleTimeout(limit) => {
                write!(f, "idle timeout: no bytes from the client for {limit:?}")
            }
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<blurnet_nn::NnError> for ServeError {
    fn from(e: blurnet_nn::NnError) -> Self {
        ServeError::Worker(e.to_string())
    }
}

impl From<blurnet_tensor::TensorError> for ServeError {
    fn from(e: blurnet_tensor::TensorError) -> Self {
        ServeError::Worker(e.to_string())
    }
}

impl From<blurnet_defenses::DefenseError> for ServeError {
    fn from(e: blurnet_defenses::DefenseError) -> Self {
        ServeError::Worker(e.to_string())
    }
}
