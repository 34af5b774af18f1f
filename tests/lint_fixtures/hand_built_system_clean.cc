// Fixture: code that only drives a SocSystem built elsewhere.

void
drive(aitax::soc::SocSystem &sys, const aitax::soc::SocSystem *peek,
      aitax::soc::SocSystem &&moved)
{
    // Prose such as `soc::SocSystem sys(cfg, 7);` builds nothing.
    const char *text = "soc::SocSystem sys(cfg, 7);";
    (void)aitax::soc::SocSystem::kDomains;
}
