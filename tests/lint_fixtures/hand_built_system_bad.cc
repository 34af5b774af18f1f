// Fixture: every way bench/ or tools/ code can build a SocSystem.
#include <memory>

void
build(const aitax::soc::SocConfig &cfg)
{
    aitax::soc::SocSystem a(cfg, 7);
    auto b = aitax::soc::SocSystem(cfg, 7);
    aitax::soc::SocSystem c = aitax::soc::SocSystem(cfg, 7);
    aitax::soc::SocSystem
        d{cfg, 7};
    auto e = std::make_unique<aitax::soc::SocSystem>(cfg, 7);
    auto *f = new aitax::soc::SocSystem(cfg, 7);
}
