//! Named long-lived worker threads and panic-payload rendering.

use std::thread::JoinHandle;

/// Renders a panic payload (`Box<dyn Any + Send>`) as a string.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawns a named, long-lived worker thread and hands back its join
/// handle. A worker owns its loop for the life of the thread; the
/// serving layer uses this for its batch workers, where each thread
/// owns a session ladder that cannot be shared, and for its monitor.
/// The name shows up in panic messages and debuggers, which is the
/// whole point.
///
/// # Panics
///
/// Panics if the OS refuses to spawn the thread.
pub fn spawn_worker<F>(name: &str, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn worker thread {name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_renders_str_string_and_other_payloads() {
        let msg = |f: fn()| panic_message(std::panic::catch_unwind(f).unwrap_err());
        assert_eq!(msg(|| panic!("static")), "static");
        assert_eq!(msg(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            msg(|| std::panic::panic_any(42u8)),
            "non-string panic payload"
        );
    }
}
