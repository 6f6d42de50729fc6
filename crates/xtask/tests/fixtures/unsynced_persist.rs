//! `no-unsynced-persist` fixture.

fn clean_publish(bytes: &[u8]) -> std::io::Result<()> {
    let f = std::fs::File::create("a.tmp")?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename("a.tmp", "a")?;
    Ok(())
}

fn clean_positional_commit(f: &std::fs::File, backend: &dyn Backend, bytes: &[u8]) -> std::io::Result<()> {
    f.write_all_at(bytes, 8)?;
    f.sync_data()?;
    backend.write_at("seg", 8, bytes)?;
    backend.sync("seg")
}

fn fires_rename_before_sync(bytes: &[u8]) -> std::io::Result<()> {
    let f = std::fs::File::create("b.tmp")?;
    f.write_all(bytes)?;
    std::fs::rename("b.tmp", "b")?;
    f.sync_data()?;
    Ok(())
}

fn fires_never_synced(bytes: &[u8]) -> std::io::Result<()> {
    let f = std::fs::File::create("c")?;
    f.write_all(bytes)?;
    Ok(())
}

fn fires_positional_never_synced(f: &std::fs::File, backend: &dyn Backend, bytes: &[u8]) -> std::io::Result<()> {
    f.write_all_at(bytes, 8)?;
    backend.write_at("seg", 8, bytes)
}

trait Backend {
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> std::io::Result<()>;
}

fn suppressed() -> std::io::Result<()> {
    // lint:allow(no-unsynced-persist): scratch file, lost on purpose at crash
    let f = std::fs::File::create("scratch")?;
    let _trap = "File::create(\"x\") then rename( inside a string";
    drop(f);
    Ok(())
}

#[cfg(test)]
mod tests {
    fn test_code_is_exempt() {
        let f = std::fs::File::create("t").unwrap();
        drop(f);
    }
}
